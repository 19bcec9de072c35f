package main

import (
	"math"
	"math/rand"
	"strconv"

	"eedtree/perfbench/ref"
)

// The benchmark's input generators. Every input is a function of the
// seed alone; the program only ever sees the generated text or values.

// Element ranges of one section, those of chipflow's synthetic designs
// (R 1–41 Ω, L 0.05–0.55 nH, C 5–55 fF): about 30% of the nodes of a
// random 50-section net come out monotone (ζ ≥ 1).
const (
	rMin, rSpan = 1.0, 40.0
	lMin, lSpan = 0.05e-9, 0.5e-9
	cMin, cSpan = 5e-15, 50e-15
)

// randomParents returns chipflow's random tree over n sections, in
// topological order: section k hangs off a uniformly chosen earlier
// node, where the input (-1) counts as one of the k candidates.
func randomParents(rng *rand.Rand, n int) []int32 {
	p := make([]int32, n)
	for k := range p {
		p[k] = int32(rng.Intn(k+1)) - 1
	}
	return p
}

// randomValues fills a reference tree over the given parents with
// element values drawn from the chipflow ranges, each rounded to six
// significant digits (the precision the text inputs carry).
func randomValues(rng *rand.Rand, parents []int32, scale func(i int) float64) *ref.Tree {
	t := &ref.Tree{}
	for i, p := range parents {
		s := 1.0
		if scale != nil {
			s = scale(i)
		}
		t.Add(p,
			round6((rMin+rng.Float64()*rSpan)*s),
			round6((lMin+rng.Float64()*lSpan)*s),
			round6((cMin+rng.Float64()*cSpan)*s))
	}
	return t
}

func round6(v float64) float64 {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 6, 64), 64)
	return r
}

// stratified returns k sizes spread log-uniformly over [lo, hi], one per
// stratum with a seeded offset inside it, so every seed draws the same
// size distribution.
func stratified(rng *rand.Rand, k, lo, hi int) []int {
	out := make([]int, k)
	ratio := math.Log(float64(hi) / float64(lo))
	for i := range out {
		f := (float64(i) + rng.Float64()) / float64(k)
		out[i] = int(math.Round(float64(lo) * math.Exp(ratio*f)))
	}
	rng.Shuffle(k, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// treeText renders a reference tree in rlctree's text format, naming
// section i prefix+i. Values are written with every digit, so the parsed
// tree holds exactly the reference's values.
func treeText(t *ref.Tree, prefix string) []byte {
	b := make([]byte, 0, t.Len()*48)
	for i, p := range t.Parent {
		b = append(b, prefix...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ' ')
		if p < 0 {
			b = append(b, '-')
		} else {
			b = append(b, prefix...)
			b = strconv.AppendInt(b, int64(p), 10)
		}
		for _, v := range [3]float64{t.R[i], t.L[i], t.C[i]} {
			b = append(b, ' ')
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, '\n')
	}
	return b
}
