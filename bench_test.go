// Package eedtree_test holds the repository-level benchmark harness: one
// benchmark per reproduced paper figure (regenerating the figure's full
// data series per iteration), the Appendix linear-complexity measurement,
// and the design-choice ablations called out in DESIGN.md §5.
package eedtree_test

import (
	"context"
	"fmt"
	"testing"

	"eedtree/internal/awe"
	"eedtree/internal/core"
	"eedtree/internal/engine"
	"eedtree/internal/experiments"
	"eedtree/internal/moments"
	"eedtree/internal/mor"
	"eedtree/internal/rlctree"
	"eedtree/internal/sources"
	"eedtree/internal/transim"
)

// benchFigure runs a whole figure reproduction per iteration.
func benchFigure(b *testing.B, gen func() (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig6ScaledDelayFit(b *testing.B) { benchFigure(b, experiments.Fig6) }
func BenchmarkFig9ExpInput(b *testing.B)       { benchFigure(b, experiments.Fig9) }
func BenchmarkFig11BalancedStep(b *testing.B)  { benchFigure(b, experiments.Fig11) }
func BenchmarkFig12Asymmetry(b *testing.B)     { benchFigure(b, experiments.Fig12) }
func BenchmarkFig13Branching(b *testing.B)     { benchFigure(b, experiments.Fig13) }
func BenchmarkFig14Depth(b *testing.B)         { benchFigure(b, experiments.Fig14) }
func BenchmarkFig15NodePosition(b *testing.B)  { benchFigure(b, experiments.Fig15) }
func BenchmarkFig16SecondOrderOscillations(b *testing.B) {
	benchFigure(b, experiments.Fig16)
}

// BenchmarkAblationModelAccuracy regenerates the whole-model-zoo accuracy
// comparison of DESIGN.md §5 per iteration.
func BenchmarkAblationModelAccuracy(b *testing.B) {
	benchFigure(b, experiments.AblationModelAccuracy)
}

// BenchmarkAppendixLinearComplexity measures the whole-tree analysis cost
// across tree sizes; ns/section staying flat demonstrates the Appendix's
// O(n) claim.
func BenchmarkAppendixLinearComplexity(b *testing.B) {
	for _, n := range []int{256, 1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("sections=%d", n), func(b *testing.B) {
			tree, err := rlctree.Line("w", n, rlctree.SectionValues{R: 1, L: 0.1e-9, C: 10e-15})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.AnalyzeTree(tree); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/section")
		})
	}
}

// BenchmarkEngineParallelComplexity measures the engine's sharded per-node
// sweep on the 65 536-section Appendix case across worker-pool widths.
// Compare the workers=1 row (the serial path) against workers≥4 with
// benchstat to see the concurrency layer's speedup; on ≥4 hardware threads
// the sweep is ≥2× faster than serial with bit-identical results (see
// TestEngineParallelSpeedup65536).
func BenchmarkEngineParallelComplexity(b *testing.B) {
	tree, err := rlctree.Line("w", 65536, rlctree.SectionValues{R: 1, L: 0.1e-9, C: 10e-15})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := engine.New(engine.Options{Workers: workers})
			for i := 0; i < b.N; i++ {
				if _, err := eng.AnalyzeTree(ctx, tree); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tree.Len()), "ns/section")
		})
	}
}

// BenchmarkAnalyzeTreeParallel times the engine's sharded sweep on a
// 16 384-section line tree with 4 workers. What the instrumentation
// costs is pinned as counts rather than time: internal/engine's
// TestSweepHistogramsPerSweep (one sample per histogram per sweep) and
// TestSweepAllocsIndependentOfObs (a stage and Record allocate nothing
// past the bare sweep), with internal/obs's
// TestMetricWritesAllocateNothing.
func BenchmarkAnalyzeTreeParallel(b *testing.B) {
	tree, err := rlctree.Line("w", 16384, rlctree.SectionValues{R: 1, L: 0.1e-9, C: 10e-15})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	eng := engine.New(engine.Options{Workers: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.AnalyzeTree(ctx, tree); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tree.Len()), "ns/section")
}

// BenchmarkSingleNodeAnalysis contrasts the per-node cost with and without
// the precomputed-sums fast path across tree sizes. The presums rows must
// stay flat as the tree grows (the closed forms do not see the tree at
// all); the fresh-sums rows pay the O(n) summation passes per call.
func BenchmarkSingleNodeAnalysis(b *testing.B) {
	for _, n := range []int{256, 4096} {
		tree, err := rlctree.Line("w", n, rlctree.SectionValues{R: 1, L: 0.1e-9, C: 10e-15})
		if err != nil {
			b.Fatal(err)
		}
		sink := tree.Leaves()[0]
		sums := tree.ElmoreSums()
		b.Run(fmt.Sprintf("presums/sections=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.AnalyzeNodeSums(sums, sink); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("fresh-sums/sections=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.AnalyzeNode(sink); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkElmoreSums isolates the paper's two-pass summation algorithm
// (2n multiplications) from the rest of the analysis.
func BenchmarkElmoreSums(b *testing.B) {
	for _, n := range []int{1024, 16384, 262144} {
		b.Run(fmt.Sprintf("sections=%d", n), func(b *testing.B) {
			tree, err := rlctree.Line("w", n, rlctree.SectionValues{R: 1, L: 0.1e-9, C: 10e-15})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sums := tree.ElmoreSums()
				if sums.SR[n-1] <= 0 {
					b.Fatal("bad sums")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/section")
		})
	}
}

// BenchmarkLadderEquivalence simulates the balanced tree of Sec. V-B and
// its collapsed ladder back to back (the integration test proves they
// match; the bench quantifies the simulation-cost gap the collapse buys).
func BenchmarkLadderEquivalence(b *testing.B) {
	per := make([]rlctree.SectionValues, 5)
	for i := range per {
		per[i] = rlctree.SectionValues{R: 25, L: 1e-9, C: 40e-15}
	}
	src := sources.Step{V0: 0, V1: 1}
	for _, cse := range []struct {
		name  string
		build func() (*rlctree.Tree, error)
	}{
		{"tree31sections", func() (*rlctree.Tree, error) { return rlctree.Balanced(5, 2, per) }},
		{"ladder5sections", func() (*rlctree.Tree, error) { return rlctree.Ladder(5, 2, per) }},
	} {
		b.Run(cse.name, func(b *testing.B) {
			tree, err := cse.build()
			if err != nil {
				b.Fatal(err)
			}
			deck, err := tree.ToDeck(src)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := transim.Simulate(deck, transim.Options{Step: 2e-12, Stop: 10e-9}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationModelOrder compares the per-node evaluation cost of the
// delay models: classical Elmore, the paper's second-order EED, and AWE at
// orders 2 and 4 (DESIGN.md §5). EED costs barely more than Elmore while
// AWE grows with order — the paper's efficiency argument.
func BenchmarkAblationModelOrder(b *testing.B) {
	tree, err := rlctree.Line("w", 64, rlctree.SectionValues{R: 10, L: 0.5e-9, C: 30e-15})
	if err != nil {
		b.Fatal(err)
	}
	sink := tree.Leaves()[0]
	b.Run("elmore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sums := tree.ElmoreSums()
			_ = 0.693 * sums.SR[sink.Index()]
		}
	})
	b.Run("eed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := core.AtNode(sink)
			if err != nil {
				b.Fatal(err)
			}
			_ = m.Delay50()
		}
	})
	// The synthesis-loop shape: sums computed once, then per-node model
	// evaluations that never touch the tree again (the O(n²)-loop fix).
	b.Run("eed-presums", func(b *testing.B) {
		sums := tree.ElmoreSums()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := core.AtNodeSums(sums, sink)
			if err != nil {
				b.Fatal(err)
			}
			_ = m.Delay50()
		}
	})
	for _, q := range []int{2, 4} {
		b.Run(fmt.Sprintf("awe-q%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := awe.AtNode(sink, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	deck, err := tree.ToDeck(sources.Step{V0: 0, V1: 1})
	if err != nil {
		b.Fatal(err)
	}
	node, _ := deck.Lookup(sink.Name())
	for _, q := range []int{4, 8} {
		b.Run(fmt.Sprintf("prima-q%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := mor.ReduceNode(deck, node, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMomentApprox compares the cost of the paper's eq.-(28)
// second-moment approximation (two O(n) sums) against computing the exact
// second moment with the general moment recursion.
func BenchmarkAblationMomentApprox(b *testing.B) {
	tree, err := rlctree.Line("w", 4096, rlctree.SectionValues{R: 5, L: 0.3e-9, C: 20e-15})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("eq28-approx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sums := tree.ElmoreSums()
			_ = sums.SR[0]*sums.SR[0] - sums.SL[0]
		}
	})
	b.Run("exact-m2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := moments.Compute(tree, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationIntegrator compares trapezoidal vs backward-Euler
// integration on the same underdamped tree (DESIGN.md §5).
func BenchmarkAblationIntegrator(b *testing.B) {
	tree, err := rlctree.BalancedUniform(4, 2, rlctree.SectionValues{R: 15, L: 2e-9, C: 40e-15})
	if err != nil {
		b.Fatal(err)
	}
	deck, err := tree.ToDeck(sources.Step{V0: 0, V1: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []transim.Method{transim.Trapezoidal, transim.BackwardEuler} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := transim.Simulate(deck, transim.Options{Method: m, Step: 2e-12, Stop: 10e-9}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdaptiveVsFixed compares the error-controlled integrator
// against fixed stepping at the resolution the controller chose for the
// sharp edge: adaptive pays a ~3× per-step cost but takes far fewer steps
// over quiet intervals.
func BenchmarkAdaptiveVsFixed(b *testing.B) {
	tree, err := rlctree.BalancedUniform(3, 2, rlctree.SectionValues{R: 40, L: 1e-9, C: 50e-15})
	if err != nil {
		b.Fatal(err)
	}
	deck, err := tree.ToDeck(sources.Step{V0: 0, V1: 1})
	if err != nil {
		b.Fatal(err)
	}
	const stop = 50e-9 // long quiet tail after a fast edge
	b.Run("adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := transim.SimulateAdaptive(deck, transim.AdaptiveOptions{Stop: stop, Tol: 1e-4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fixed-fine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := transim.Simulate(deck, transim.Options{Step: 1e-12, Stop: stop}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTransientStep measures the simulator's per-timestep cost as the
// circuit grows.
func BenchmarkTransientStep(b *testing.B) {
	for _, levels := range []int{3, 5, 7} {
		tree, err := rlctree.BalancedUniform(levels, 2, rlctree.SectionValues{R: 20, L: 1e-9, C: 30e-15})
		if err != nil {
			b.Fatal(err)
		}
		deck, err := tree.ToDeck(sources.Step{V0: 0, V1: 1})
		if err != nil {
			b.Fatal(err)
		}
		const steps = 2000
		b.Run(fmt.Sprintf("sections=%d", tree.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := transim.Simulate(deck, transim.Options{Step: 5e-12, Stop: 5e-12 * steps}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/steps, "ns/step")
		})
	}
}

// BenchmarkClosedForms measures the per-call cost of the paper's
// closed-form expressions — the quantities synthesis loops evaluate
// millions of times.
func BenchmarkClosedForms(b *testing.B) {
	m, err := core.FromZetaOmega(0.8, 1e10)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("delay50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = m.Delay50()
		}
	})
	b.Run("riseTime", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = m.RiseTime()
		}
	})
	b.Run("stepResponseEval", func(b *testing.B) {
		f := m.StepResponse(1)
		for i := 0; i < b.N; i++ {
			_ = f(1e-10)
		}
	})
	// ζ = 0.8 takes the eq. (42) closed form; ζ = 1 and ζ = 2 take the
	// numeric solve of the monotone response.
	for _, zeta := range []float64{0.8, 1, 2} {
		m, err := core.FromZetaOmega(zeta, 1e10)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("settlingTime/zeta=%g", zeta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.SettlingTime(0.1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
