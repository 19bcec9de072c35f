package spef

import (
	"context"
	"io"
	"strings"
	"testing"

	"eedtree/internal/guard"
)

// FuzzParse drives the SPEF parser with arbitrary inputs: no panics, and
// accepted files must round-trip through the writer with the same net and
// branch counts.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Add("*SPEF \"x\"\n*T_UNIT 1 NS\n")
	f.Add("*D_NET n 1\n*CAP\n1 a 0.5\n*END\n")
	f.Add("*NAME_MAP\n*1 foo\n*D_NET *1 1\n*RES\n1 *1:1 *1:2 5\n*END\n")
	f.Add("")
	// Limit-exercising seeds: an over-long line, many nets, and a net
	// with many branches.
	f.Add("*SPEF \"x\"\n// " + strings.Repeat("y", 1<<17) + "\n")
	f.Add(strings.Repeat("*D_NET n 1\n*END\n", 40))
	f.Add("*D_NET n 1\n*CAP\n" + strings.Repeat("1 a 0.5\n", 64) + "*END\n")
	f.Fuzz(func(t *testing.T, input string) {
		// Under guard.Run with tight limits the parser must never panic
		// and every failure must carry a guard class.
		gerr := guard.Run(context.Background(), func(context.Context) error {
			_, err := ParseLimits(strings.NewReader(input),
				guard.Limits{MaxLineBytes: 256, MaxNets: 8, MaxElements: 32})
			return err
		})
		if gerr != nil && guard.Class(gerr) == nil {
			t.Fatalf("limited parse error %v carries no guard class\ninput: %q", gerr, input)
		}
		file, err := ParseString(input)
		if err != nil {
			return
		}
		back, err := ParseString(file.Format())
		if err != nil {
			t.Fatalf("accepted SPEF failed to round-trip: %v\ninput: %q\nformatted: %q", err, input, file.Format())
		}
		if len(back.Nets) != len(file.Nets) {
			t.Fatalf("round trip changed net count %d → %d", len(file.Nets), len(back.Nets))
		}
		for i, n := range file.Nets {
			b := back.Nets[i]
			if len(b.Ress) != len(n.Ress) || len(b.Caps) != len(n.Caps) || len(b.Inducs) != len(n.Inducs) {
				t.Fatalf("round trip changed branch counts for net %q", n.Name)
			}
		}
	})
}

// streamSeeds are FuzzStream's seed inputs; FuzzNetTree starts from them
// too.
var streamSeeds = []string{
	sample,
	samplePorts,
	"*NAME_MAP\n*1 foo\n*PORTS\n*1 I\n*D_NET *1 1\n*RES\n1 a b 5\n*END\n",
	"*D_NET n 1\n*CAP\n1 a 0.5\n*END\n*D_NET m 2\n*END\n",
	"*D_NET n 1\n*CAP\n1 a 0.5\n",
	"",
}

// FuzzStream: the streaming reader and the whole-file parser run one
// grammar, so on ANY input they must agree net-for-net (same values in
// the same order) and on acceptance: Stream fails iff Parse fails.
func FuzzStream(f *testing.F) {
	for _, seed := range streamSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		whole, perr := ParseString(input)
		s := NewStream(strings.NewReader(input))
		var serr error
		var got int
		for {
			n, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				serr = err
				break
			}
			if perr == nil {
				if got >= len(whole.Nets) {
					t.Fatalf("stream yielded net %d beyond Parse's %d\ninput: %q", got, len(whole.Nets), input)
				}
				if !sameNets(n, whole.Nets[got]) {
					t.Fatalf("net %d differs\nstream: %+v\nparse:  %+v\ninput: %q", got, n, whole.Nets[got], input)
				}
			}
			got++
			s.Recycle(n)
		}
		if (perr == nil) != (serr == nil) {
			t.Fatalf("acceptance differs: Parse err=%v, Stream err=%v\ninput: %q", perr, serr, input)
		}
		if perr == nil {
			if got != len(whole.Nets) {
				t.Fatalf("stream yielded %d nets, Parse %d\ninput: %q", got, len(whole.Nets), input)
			}
			if s.Units() != whole.Units {
				t.Fatalf("units differ: stream %+v parse %+v\ninput: %q", s.Units(), whole.Units, input)
			}
		}
		if serr != nil && guard.Class(serr) == nil {
			t.Fatalf("stream error %v carries no guard class\ninput: %q", serr, input)
		}
	})
}

// FuzzNetTree: on every net of any input the parser accepts, the flat
// Net.Tree and its map-based twin agree — equal fingerprints, or both fail
// with the same message wherever the twin's message is not a random pick
// among several offenders.
func FuzzNetTree(f *testing.F) {
	for _, seed := range streamSeeds {
		f.Add(seed)
	}
	for _, c := range treeErrorNets {
		f.Add(c.text)
	}
	f.Fuzz(func(t *testing.T, input string) {
		file, err := ParseString(input)
		if err != nil {
			return
		}
		for _, n := range file.Nets {
			if msg := compareWithTwin(n, file.Units); msg != "" {
				t.Fatalf("%s\ninput: %q", msg, input)
			}
		}
	})
}
