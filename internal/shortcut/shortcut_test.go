package shortcut

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/topology"
)

func meshParams(budget int) (g *graph.Digraph, p Params, m *topology.Mesh) {
	m = topology.New10x10()
	g = m.Graph()
	p = Params{
		Budget:   budget,
		Eligible: m.ShortcutEligible,
		MeshW:    m.W,
		MeshH:    m.H,
	}
	return g, p, m
}

func TestMaxCostRespectsBudgetAndPorts(t *testing.T) {
	g, p, _ := meshParams(16)
	edges := SelectMaxCost(g, p)
	if len(edges) != 16 {
		t.Fatalf("selected %d edges, want 16", len(edges))
	}
	if err := Validate(edges, p); err != nil {
		t.Fatal(err)
	}
}

func TestMaxCostReducesDiameterAndCost(t *testing.T) {
	g, p, _ := meshParams(16)
	before, _, _ := g.Diameter()
	costBefore := g.TotalPairCost()
	edges := SelectMaxCost(g, p)
	aug := Apply(g, edges)
	after, _, _ := aug.Diameter()
	costAfter := aug.TotalPairCost()
	if after >= before {
		t.Errorf("diameter not reduced: %d -> %d", before, after)
	}
	if costAfter >= costBefore {
		t.Errorf("total cost not reduced: %d -> %d", costBefore, costAfter)
	}
	// 16 cross-chip shortcuts should cut mean distance substantially
	// (the paper sees ~20%+ latency gains from the static set).
	if float64(costAfter) > 0.9*float64(costBefore) {
		t.Errorf("cost reduction too small: %d -> %d", costBefore, costAfter)
	}
}

func TestMaxCostAvoidsCorners(t *testing.T) {
	g, p, m := meshParams(16)
	for _, e := range SelectMaxCost(g, p) {
		if m.IsCorner(e.From) || m.IsCorner(e.To) {
			t.Errorf("edge %v touches a memory corner", e)
		}
	}
}

func TestMaxCostFirstEdgeSpansDiameter(t *testing.T) {
	// On a fresh mesh with eligibility, the first max-cost pair must be at
	// the graph's eligible diameter: 16 hops between opposite near-corner
	// routers (corners themselves are excluded).
	g, p, m := meshParams(1)
	edges := SelectMaxCost(g, p)
	if len(edges) != 1 {
		t.Fatal("no edge selected")
	}
	if d := m.Manhattan(edges[0].From, edges[0].To); d != 16 {
		t.Errorf("first shortcut spans %d hops, want 16", d)
	}
}

func TestGreedyPermutationOnSmallGrid(t *testing.T) {
	g := graph.Grid(5, 5)
	p := Params{Budget: 4}
	edges := SelectGreedyPermutation(g, p)
	if len(edges) != 4 {
		t.Fatalf("selected %d edges, want 4", len(edges))
	}
	if err := Validate(edges, p); err != nil {
		t.Fatal(err)
	}
	if Apply(g, edges).TotalPairCost() >= g.TotalPairCost() {
		t.Error("greedy permutation selection did not improve cost")
	}
}

func TestGreedyBeatsOrMatchesMaxCostOnObjective(t *testing.T) {
	// The permutation-graph heuristic optimizes the objective directly,
	// so it can never end up worse than max-cost *on the first step*. Over
	// several steps both should land within a few percent of each other
	// (the paper found them comparable and kept the cheaper one).
	g := graph.Grid(6, 6)
	p := Params{Budget: 4}
	cg := Apply(g, SelectGreedyPermutation(g, p)).TotalPairCost()
	cm := Apply(g, SelectMaxCost(g, p)).TotalPairCost()
	if float64(cg) > 1.10*float64(cm) {
		t.Errorf("greedy objective %d much worse than max-cost %d", cg, cm)
	}
}

func TestApplicationSpecificPrefersHotPairs(t *testing.T) {
	g, p, m := meshParams(4)
	// Build a frequency matrix with one dominant flow: (1,1) -> (8,8).
	freq := make([][]int64, g.N())
	hotSrc, hotDst := m.ID(1, 1), m.ID(8, 8)
	freq[hotSrc] = make([]int64, g.N())
	freq[hotSrc][hotDst] = 1000
	other := m.ID(2, 2)
	freq[other] = make([]int64, g.N())
	freq[other][m.ID(3, 3)] = 1
	p.Freq = freq
	edges := SelectMaxCost(g, p)
	if len(edges) == 0 {
		t.Fatal("no edges selected")
	}
	if edges[0].From != hotSrc || edges[0].To != hotDst {
		t.Errorf("first app-specific edge = %v, want %d->%d", edges[0], hotSrc, hotDst)
	}
}

func TestApplicationSpecificIgnoresZeroFreqPairs(t *testing.T) {
	g, p, m := meshParams(16)
	freq := make([][]int64, g.N())
	a, b := m.ID(1, 2), m.ID(8, 7)
	freq[a] = make([]int64, g.N())
	freq[a][b] = 5
	p.Freq = freq
	edges := SelectMaxCost(g, p)
	// Only one pair has traffic, so only one shortcut can be placed.
	if len(edges) != 1 {
		t.Fatalf("selected %d edges, want 1 (only one nonzero pair)", len(edges))
	}
	if edges[0].From != a || edges[0].To != b {
		t.Errorf("edge = %v, want %d->%d", edges[0], a, b)
	}
}

func TestRegionBasedServesHotspot(t *testing.T) {
	g, p, m := meshParams(8)
	// Hotspot: the cache at (7,0), as in the paper's Figure 2(c). Many
	// cores send to it.
	hot := m.ID(7, 0)
	freq := make([][]int64, g.N())
	for _, src := range []int{m.ID(1, 8), m.ID(2, 7), m.ID(3, 8), m.ID(1, 6), m.ID(4, 7), m.ID(2, 5)} {
		freq[src] = make([]int64, g.N())
		freq[src][hot] = 500
	}
	p.Freq = freq
	edges := SelectRegionBased(g, p)
	if err := Validate(edges, p); err != nil {
		t.Fatal(err)
	}
	if len(edges) < 2 {
		t.Fatalf("selected %d edges, want >= 2", len(edges))
	}
	// Pure pair selection can place at most ONE shortcut ending at the
	// hotspot router. Region-based selection must land several shortcut
	// destinations within 2 hops of the hotspot.
	near := 0
	for _, e := range edges {
		if m.Manhattan(e.To, hot) <= 2 {
			near++
		}
	}
	if near < 2 {
		t.Errorf("only %d shortcut destinations near hotspot, want >= 2 (edges: %v)", near, edges)
	}
}

func TestRegionBasedRequiresFreq(t *testing.T) {
	g, p, _ := meshParams(4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic without Freq")
		}
	}()
	SelectRegionBased(g, p)
}

func TestRegionsEnumeration(t *testing.T) {
	regs := regions(10, 10)
	if len(regs) != 64 {
		t.Fatalf("regions = %d, want 64", len(regs))
	}
	for _, r := range regs {
		if len(r.ids) != 9 {
			t.Fatalf("region has %d cells, want 9", len(r.ids))
		}
	}
	// Overlap logic: adjacent windows overlap, distant ones do not.
	if !regs[0].overlaps(regs[1]) {
		t.Error("adjacent regions should overlap")
	}
	a := Region{X0: 0, Y0: 0}
	b := Region{X0: 3, Y0: 0}
	if a.overlaps(b) {
		t.Error("regions 3 apart should not overlap")
	}
	if !a.overlaps(a) {
		t.Error("a region overlaps itself")
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	p := Params{Budget: 2}
	if err := Validate([]Edge{{1, 2}, {3, 4}, {5, 6}}, p); err == nil {
		t.Error("over budget not caught")
	}
	p.Budget = 10
	if err := Validate([]Edge{{1, 1}}, p); err == nil {
		t.Error("self edge not caught")
	}
	if err := Validate([]Edge{{1, 2}, {1, 3}}, p); err == nil {
		t.Error("duplicate source not caught")
	}
	if err := Validate([]Edge{{1, 2}, {3, 2}}, p); err == nil {
		t.Error("duplicate destination not caught")
	}
	p.Eligible = func(id int) bool { return id != 7 }
	if err := Validate([]Edge{{7, 2}}, p); err == nil {
		t.Error("ineligible source not caught")
	}
	if err := Validate([]Edge{{2, 7}}, p); err == nil {
		t.Error("ineligible destination not caught")
	}
	if err := Validate([]Edge{{1, 2}}, p); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
}

func TestEligibilityRestrictsToRFRouters(t *testing.T) {
	g, p, m := meshParams(16)
	aps := map[int]bool{}
	for _, id := range m.RFPlacement(50) {
		aps[id] = true
	}
	p.Eligible = func(id int) bool { return aps[id] && m.ShortcutEligible(id) }
	edges := SelectMaxCost(g, p)
	if len(edges) != 16 {
		t.Fatalf("selected %d edges, want 16", len(edges))
	}
	for _, e := range edges {
		if !aps[e.From] || !aps[e.To] {
			t.Errorf("edge %v uses a non-RF-enabled router", e)
		}
	}
}

// Property: for random sparse frequency matrices, region-based selection
// always returns a valid shortcut set that never exceeds budget and whose
// weighted objective is no worse than the unaugmented mesh.
func TestPropertyRegionBasedValid(t *testing.T) {
	m := topology.New10x10()
	g := m.Graph()
	f := func(seeds [6]uint16) bool {
		freq := make([][]int64, g.N())
		for _, s := range seeds {
			a := int(s) % g.N()
			b := int(s>>8) % g.N()
			if a == b {
				continue
			}
			if freq[a] == nil {
				freq[a] = make([]int64, g.N())
			}
			freq[a][b] += int64(s%97) + 1
		}
		p := Params{
			Budget:   6,
			Eligible: m.ShortcutEligible,
			Freq:     freq,
			MeshW:    m.W, MeshH: m.H,
		}
		edges := SelectRegionBased(g, p)
		if Validate(edges, p) != nil {
			return false
		}
		before := graph.WeightedCost(g.AllPairs(), freq)
		after := graph.WeightedCost(Apply(g, edges).AllPairs(), freq)
		return after <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSelectionStopsWhenEligibilityExhausted(t *testing.T) {
	// Only four eligible routers -> at most 4 sources and 4 dests, but
	// the one-in/one-out rule and self-edge ban cap the yield below the
	// budget; selection must stop gracefully instead of spinning.
	g := graph.Grid(6, 6)
	allowed := map[int]bool{0: true, 5: true, 30: true, 35: true}
	p := Params{Budget: 16, Eligible: func(id int) bool { return allowed[id] }}
	edges := SelectMaxCost(g, p)
	if len(edges) == 0 || len(edges) > 4 {
		t.Fatalf("selected %d edges, want 1..4", len(edges))
	}
	if err := Validate(edges, p); err != nil {
		t.Fatal(err)
	}
}

func TestMinDistanceFiltersNearPairs(t *testing.T) {
	g := graph.Grid(4, 4)
	// With MinDistance 6, only the corner-to-corner pairs qualify on a
	// 4x4 grid (max distance 6).
	p := Params{Budget: 16, MinDistance: 6}
	edges := SelectMaxCost(g, p)
	for _, e := range edges {
		d := abs(e.From%4-e.To%4) + abs(e.From/4-e.To/4)
		if d < 6 {
			t.Fatalf("edge %v spans %d < MinDistance 6", e, d)
		}
	}
	if len(edges) == 0 {
		t.Fatal("no edges selected")
	}
}

func TestGreedyPermutationRespectsEligibility(t *testing.T) {
	g := graph.Grid(6, 6)
	banned := 14
	p := Params{Budget: 3, Eligible: func(id int) bool { return id != banned }}
	for _, e := range SelectGreedyPermutation(g, p) {
		if e.From == banned || e.To == banned {
			t.Fatalf("edge %v uses banned router", e)
		}
	}
}

// TestAddEdgeDistancesMatchesAPSP checks the in-place distance update
// against a full recomputation after every edge, for random shortcut
// sets (duplicates and mesh-parallel edges included) on several grids.
func TestAddEdgeDistancesMatchesAPSP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range [][2]int{{4, 4}, {5, 5}, {6, 6}, {10, 10}} {
		g := graph.Grid(dim[0], dim[1])
		n := g.N()
		for trial := 0; trial < 5; trial++ {
			d := g.AllPairs()
			var edges []Edge
			for k := 0; k < 12; k++ {
				e := Edge{From: rng.Intn(n), To: rng.Intn(n)}
				if e.From == e.To {
					continue
				}
				edges = append(edges, e)
				addEdgeDistances(d, e)
				if want := Apply(g, edges).AllPairs(); !reflect.DeepEqual(d, want) {
					t.Fatalf("%dx%d after %v: in-place distances differ from APSP", dim[0], dim[1], edges)
				}
			}
		}
	}
}

// TestSelectionDistancesMatchAPSP checks that each selector's final
// distance matrix is the APSP of the augmented graph (SelectAdaptive
// compares the two candidate sets on it).
func TestSelectionDistancesMatchAPSP(t *testing.T) {
	g, p, _ := meshParams(16)
	rng := rand.New(rand.NewSource(1))
	p.Freq = make([][]int64, g.N())
	for x := range p.Freq {
		p.Freq[x] = make([]int64, g.N())
		for y := range p.Freq[x] {
			p.Freq[x][y] = int64(rng.Intn(50))
		}
	}
	for name, s := range map[string]*selection{"region": selectRegion(g, p), "greedy": selectGreedy(g, p)} {
		if len(s.out) == 0 {
			t.Fatalf("%s selected nothing", name)
		}
		if !reflect.DeepEqual(s.d, Apply(g, s.out).AllPairs()) {
			t.Errorf("%s: final distances differ from APSP of the augmented graph", name)
		}
	}
}

// The naive references below restate each selector from its definition,
// recomputing APSP of the augmented graph for every step (and, for the
// permutation graph, for every candidate) and scanning region pairs in a
// stable order. They are slow on purpose.

func naiveBestPair(apsp [][]int, p Params, out []Edge) (Edge, bool) {
	src, dst := map[int]bool{}, map[int]bool{}
	for _, e := range out {
		src[e.From], dst[e.To] = true, true
	}
	var best Edge
	bestCost := int64(-1)
	for i := range apsp {
		for j := range apsp {
			w := apsp[i][j]
			if i == j || src[i] || dst[j] || !p.eligible(i) || !p.eligible(j) || w < p.minDist() || w >= graph.Infinity {
				continue
			}
			cost := int64(w)
			if p.Freq != nil {
				cost = freqAt(p.Freq, i, j) * int64(w)
				if cost == 0 {
					continue
				}
			}
			if cost > bestCost {
				best, bestCost = Edge{i, j}, cost
			}
		}
	}
	return best, bestCost >= 0
}

func naiveMaxCost(g *graph.Digraph, p Params) []Edge {
	var out []Edge
	for len(out) < p.Budget {
		e, ok := naiveBestPair(Apply(g, out).AllPairs(), p, out)
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out
}

func naiveObjective(apsp [][]int, p Params) int64 {
	if p.Freq != nil {
		return graph.WeightedCost(apsp, p.Freq)
	}
	return graph.TotalCost(apsp)
}

func naiveGreedy(g *graph.Digraph, p Params) []Edge {
	var out []Edge
	for len(out) < p.Budget {
		apsp := Apply(g, out).AllPairs()
		bestTotal := naiveObjective(apsp, p)
		var best Edge
		found := false
		for i := range apsp {
			for j := range apsp {
				if apsp[i][j] < p.minDist() || Validate(append(append([]Edge(nil), out...), Edge{i, j}), Params{Budget: p.Budget, Eligible: p.Eligible}) != nil {
					continue
				}
				if t := naiveObjective(Apply(g, append(append([]Edge(nil), out...), Edge{i, j})).AllPairs(), p); t < bestTotal {
					best, bestTotal, found = Edge{i, j}, t, true
				}
			}
		}
		if !found {
			break
		}
		out = append(out, best)
	}
	return out
}

func naiveRegionEdge(apsp [][]int, p Params, out []Edge) (Edge, bool) {
	src, dst := map[int]bool{}, map[int]bool{}
	for _, e := range out {
		src[e.From], dst[e.To] = true, true
	}
	type scored struct {
		a, b Region
		c    int64
	}
	var pairs []scored
	regs := regions(p.MeshW, p.MeshH)
	for _, a := range regs {
		for _, b := range regs {
			if a.overlaps(b) {
				continue
			}
			var c int64
			for _, x := range a.ids {
				for _, y := range b.ids {
					if x != y {
						c += freqAt(p.Freq, x, y) * int64(apsp[x][y])
					}
				}
			}
			if c > 0 {
				pairs = append(pairs, scored{a, b, c})
			}
		}
	}
	sort.SliceStable(pairs, func(x, y int) bool { return pairs[x].c > pairs[y].c })
	for _, pr := range pairs {
		score := func(cand int, toward func(x, y int) int) float64 {
			var s float64
			for _, x := range pr.a.ids {
				for _, y := range pr.b.ids {
					if f := freqAt(p.Freq, x, y); f != 0 && x != y {
						s += float64(f) * float64(apsp[x][y]) / float64(1+apsp[cand][toward(x, y)])
					}
				}
			}
			return s
		}
		bestSrc, bestDst := -1, -1
		bestSrcScore, bestDstScore := -1.0, -1.0
		for _, i := range pr.a.ids {
			if s := score(i, func(x, _ int) int { return x }); !src[i] && p.eligible(i) && s > bestSrcScore {
				bestSrc, bestSrcScore = i, s
			}
		}
		for _, j := range pr.b.ids {
			if s := score(j, func(_, y int) int { return y }); !dst[j] && p.eligible(j) && s > bestDstScore {
				bestDst, bestDstScore = j, s
			}
		}
		if bestSrc >= 0 && bestDst >= 0 && bestSrc != bestDst && apsp[bestSrc][bestDst] >= p.minDist() {
			return Edge{bestSrc, bestDst}, true
		}
	}
	return Edge{}, false
}

func naiveRegion(g *graph.Digraph, p Params) []Edge {
	var out []Edge
	for len(out) < p.Budget {
		apsp := Apply(g, out).AllPairs()
		first, second := naiveBestPair, naiveRegionEdge
		if len(out)%2 == 1 {
			first, second = naiveRegionEdge, naiveBestPair
		}
		e, ok := first(apsp, p, out)
		if !ok {
			e, ok = second(apsp, p, out)
		}
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out
}

// TestSelectorsMatchNaiveReference compares every selector with its
// naive reference on random sparse frequency matrices, random
// eligibility and budgets over 5x5 and 6x6 grids (on 5x5 every pair of
// 3x3 regions overlaps, so region steps fall back to pair placement).
func TestSelectorsMatchNaiveReference(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := 5 + int(seed%2)
		g := graph.Grid(w, w)
		n := g.N()
		banned := map[int]bool{}
		for v := 0; v < n; v++ {
			banned[v] = rng.Intn(3) == 0
		}
		freq := make([][]int64, n)
		for k := 0; k < 2+rng.Intn(3*n); k++ {
			x, y := rng.Intn(n), rng.Intn(n)
			if freq[x] == nil {
				freq[x] = make([]int64, n)
			}
			freq[x][y] += int64(1 + rng.Intn(4)) // small weights make ties
		}
		p := Params{
			Budget:   2 + rng.Intn(5),
			Eligible: func(v int) bool { return !banned[v] },
			Freq:     freq,
			MeshW:    w,
			MeshH:    w,
		}
		arch := p
		arch.Freq = nil
		for _, c := range []struct {
			name       string
			got, naive func(*graph.Digraph, Params) []Edge
			p          Params
		}{
			{"maxcost", SelectMaxCost, naiveMaxCost, p},
			{"maxcost-arch", SelectMaxCost, naiveMaxCost, arch},
			{"greedy", SelectGreedyPermutation, naiveGreedy, p},
			{"greedy-arch", SelectGreedyPermutation, naiveGreedy, arch},
			{"region", SelectRegionBased, naiveRegion, p},
		} {
			got, want := c.got(g, c.p), c.naive(g, c.p)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d %dx%d %s: got %v, naive reference %v", seed, w, w, c.name, got, want)
			}
		}
	}
}
