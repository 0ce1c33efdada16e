// Package shortcut implements the paper's RF-I shortcut-selection
// algorithms (Section 3.2):
//
//   - the permutation-graph greedy heuristic of Figure 3(a), which tries
//     every candidate edge against the full objective;
//   - the max-cost heuristic of Figure 3(b), which repeatedly adds the
//     most expensive remaining pair;
//   - application-specific variants of both, which weight the objective by
//     inter-router communication frequency F(x,y) (Section 3.2.2);
//   - the region-based selector that alternates pair placement with
//     region-to-region placement over 3x3 sub-meshes, so that several
//     shortcuts can serve one communication hotspot;
//   - SelectAdaptive, which runs both application-specific heuristics and
//     keeps the cheaper set.
//
// Every selector computes all-pairs shortest paths once and then keeps
// the distance matrix exact in place, in O(V^2) per added edge, with
//
//	d'(x,y) = min( d(x,y), d(x,i) + 1 + d(j,y) )
//
// for a new weight-1 edge (i,j). A max-cost or region step is then
// O(V^2), and a permutation-graph step is O(V^3) (see
// SelectGreedyPermutation), against the paper's O(V^5) per step for
// recomputing APSP for every candidate.
//
// All selectors respect the paper's port constraints: at most one inbound
// and one outbound shortcut per router, and no shortcut may start or end
// on an ineligible router (the four memory corners, and -- for adaptive
// configurations -- any router that is not RF-enabled).
package shortcut

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Edge is a selected unidirectional shortcut.
type Edge struct {
	From, To int
}

// String implements fmt.Stringer.
func (e Edge) String() string { return fmt.Sprintf("%d->%d", e.From, e.To) }

// Params configures a selection run.
type Params struct {
	// Budget is the number of unidirectional shortcuts to select
	// (B = 16 in the paper: 256 B of RF-I bandwidth at 16 B per shortcut).
	Budget int

	// Eligible reports whether a router may be a shortcut endpoint.
	// Nil means every router is eligible. The paper excludes the four
	// memory corners always, and restricts endpoints to RF-enabled
	// routers in adaptive configurations.
	Eligible func(id int) bool

	// Freq is the inter-router communication-frequency matrix F(x,y)
	// (number of messages sent from x to y). Nil selects the
	// architecture-specific objective, which weights every pair equally.
	Freq [][]int64

	// MeshW and MeshH give the mesh dimensions, needed only by the
	// region-based selector to enumerate 3x3 sub-mesh regions.
	MeshW, MeshH int

	// MinDistance is the minimum current shortest-path distance between a
	// candidate's endpoints; pairs closer than this gain nothing from a
	// single-cycle shortcut. Defaults to 2.
	MinDistance int
}

func (p Params) minDist() int {
	if p.MinDistance <= 0 {
		return 2
	}
	return p.MinDistance
}

func (p Params) eligible(id int) bool {
	return p.Eligible == nil || p.Eligible(id)
}

// selection is one selector run's state between picks: the current
// distance matrix, endpoint eligibility (Params.Eligible evaluated once
// per router) and the one-inbound/one-outbound port bookkeeping.
type selection struct {
	p        Params
	d        [][]int
	elig     []bool
	src, dst []bool
	out      []Edge
}

func newSelection(g *graph.Digraph, p Params) *selection {
	n := g.N()
	s := &selection{p: p, d: g.AllPairs(), elig: make([]bool, n), src: make([]bool, n), dst: make([]bool, n)}
	for v := range s.elig {
		s.elig[v] = p.eligible(v)
	}
	return s
}

// ok reports whether (i,j) satisfies the port and eligibility constraints.
func (s *selection) ok(i, j int) bool {
	return i != j && !s.src[i] && !s.dst[j] && s.elig[i] && s.elig[j]
}

// take records a pick and updates the distance matrix for its edge.
func (s *selection) take(e Edge) {
	s.out = append(s.out, e)
	s.src[e.From], s.dst[e.To] = true, true
	addEdgeDistances(s.d, e)
}

// addEdgeDistances updates an all-pairs distance matrix in place for a
// new weight-1 edge (i,j). A shortest path uses the new edge at most
// once, and its parts before and after the edge are old shortest paths,
// so the new distance is min(d(x,y), d(x,i)+1+d(j,y)). Row j and column
// i do not change (their via term exceeds the direct one), so updating
// in place reads only final values.
func addEdgeDistances(d [][]int, e Edge) {
	rowJ := d[e.To]
	for _, row := range d {
		a := row[e.From] + 1
		if a >= graph.Infinity {
			continue
		}
		for y, dy := range rowJ {
			if via := a + dy; via < row[y] {
				row[y] = via
			}
		}
	}
}

// SelectMaxCost implements the Figure 3(b) heuristic on the
// architecture-specific objective: repeatedly add a weight-1 edge between
// the pair with the maximum current shortest-path cost, updating
// distances after every addition, until the budget is exhausted. If
// p.Freq is non-nil the cost of a pair is F(x,y)*W(x,y) instead of W(x,y)
// (the Section 3.2.2 application-specific objective).
//
// The input graph is not modified; the augmented graph can be obtained
// with Apply.
func SelectMaxCost(g *graph.Digraph, p Params) []Edge {
	s := newSelection(g, p)
	for len(s.out) < p.Budget {
		best, ok := s.bestPair()
		if !ok {
			break
		}
		s.take(best)
	}
	return s.out
}

// bestPair scans all eligible unused pairs and returns the one with the
// highest cost under p's objective; ties go to the first in (i,j) order.
func (s *selection) bestPair() (Edge, bool) {
	var best Edge
	var bestCost int64 = -1
	minDist := s.p.minDist()
	for i, row := range s.d {
		if s.src[i] || !s.elig[i] {
			continue
		}
		for j, w := range row {
			if !s.ok(i, j) || w < minDist || w >= graph.Infinity {
				continue
			}
			cost := int64(w)
			if s.p.Freq != nil {
				f := freqAt(s.p.Freq, i, j)
				if f == 0 {
					continue
				}
				cost = f * int64(w)
			}
			if cost > bestCost {
				bestCost = cost
				best = Edge{From: i, To: j}
			}
		}
	}
	return best, bestCost >= 0
}

func freqAt(freq [][]int64, i, j int) int64 {
	if i >= len(freq) || freq[i] == nil || j >= len(freq[i]) {
		return 0
	}
	return freq[i][j]
}

// SelectGreedyPermutation implements the Figure 3(a) heuristic: for every
// candidate edge (i,j), evaluate the total objective of the permutation
// graph G' = G + (i,j) and keep the candidate with the best improvement;
// repeat until the budget is exhausted. The objective is the sum over all
// pairs of W(x,y), or of F(x,y)*W(x,y) when p.Freq is non-nil. Ties go
// to the first candidate in (i,j) order, and a step that improves
// nothing ends the selection.
//
// A candidate is scored by its gain, the objective it removes:
//
//	gain(i,j) = sum over x,y of F(x,y) * max(0, c(x,y) - d(j,y)),
//	c(x,y)    = d(x,y) - d(x,i) - 1
//
// For a fixed source i, c does not depend on j, so the pairs (x,y) with
// c > 0 fold into one table per destination y, G_y(t) = sum of
// F(x,y)*max(0, c(x,y)-t), built from suffix sums over c. Each candidate
// j then costs one lookup per y: gain(i,j) = sum over y of G_y(d(j,y)).
// A step is O(V*(F + V*D + V^2)) = O(V^3) for F nonzero flows and
// maximum distance D, so a selection is O(B*V^3); evaluating the
// objective per candidate is O(B*V^4), and recomputing APSP per
// candidate, as the paper states it, O(B*V^5).
func SelectGreedyPermutation(g *graph.Digraph, p Params) []Edge {
	return selectGreedy(g, p).out
}

func selectGreedy(g *graph.Digraph, p Params) *selection {
	s := newSelection(g, p)
	n := g.N()
	// The objective is undefined when a weighted pair is unreachable.
	if p.Freq != nil {
		graph.WeightedCost(s.d, p.Freq)
	} else {
		graph.TotalCost(s.d)
	}
	flows := flowsOf(n, p.Freq)
	// Distances only shrink, so c < maxD for good: G_y(t) is zero for
	// t >= maxD, and the tables need indices 1..maxD.
	maxD := 0
	for _, row := range s.d {
		for _, v := range row {
			if v > maxD && v < graph.Infinity {
				maxD = v
			}
		}
	}
	w := maxD + 1
	sumF := make([]int64, n*w)  // sumF[y*w+t]: sum of F over c >= t
	sumFC := make([]int64, n*w) // sumFC[y*w+t]: sum of F*c over c >= t
	minDist := p.minDist()
	for len(s.out) < p.Budget {
		// Sort each source's flows by current distance, farthest first:
		// once d(x,y) <= d(x,i)+1 no later y of row x can gain from i.
		for x, fl := range flows {
			row := s.d[x]
			slices.SortFunc(fl, func(a, b flow) int { return row[b.y] - row[a.y] })
		}
		var best Edge
		var bestGain int64 // only strict improvements are accepted
		for i := 0; i < n; i++ {
			if s.src[i] || !s.elig[i] {
				continue
			}
			clear(sumF)
			clear(sumFC)
			for x, fl := range flows {
				a := s.d[x][i] + 1
				row := s.d[x]
				for _, f := range fl {
					c := row[f.y] - a
					if c <= 0 {
						break
					}
					sumF[f.y*w+c] += f.f
					sumFC[f.y*w+c] += f.f * int64(c)
				}
			}
			for y := 0; y < n; y++ {
				for k := y*w + maxD - 1; k > y*w; k-- {
					sumF[k] += sumF[k+1]
					sumFC[k] += sumFC[k+1]
				}
			}
			for j := 0; j < n; j++ {
				if !s.ok(i, j) || s.d[i][j] < minDist {
					continue
				}
				var gain int64
				for y, t := range s.d[j] {
					if t < maxD {
						k := y*w + t + 1
						gain += sumFC[k] - int64(t)*sumF[k]
					}
				}
				if gain > bestGain {
					bestGain = gain
					best = Edge{From: i, To: j}
				}
			}
		}
		if bestGain == 0 {
			break
		}
		s.take(best)
	}
	return s
}

// flow is one weighted pair of the objective: destination y of a source
// row and its weight F(x,y).
type flow struct {
	y int
	f int64
}

// flowsOf lists each source's nonzero objective terms: F(x,y) for y != x,
// or weight 1 for every y != x when freq is nil.
func flowsOf(n int, freq [][]int64) [][]flow {
	out := make([][]flow, n)
	for x := range out {
		for y := 0; y < n; y++ {
			f := int64(1)
			if freq != nil {
				f = freqAt(freq, x, y)
			}
			if f != 0 && x != y {
				out[x] = append(out[x], flow{y, f})
			}
		}
	}
	return out
}

// Region is a 3x3 sub-mesh, identified by its lower-left corner.
type Region struct {
	X0, Y0 int
	ids    []int
}

// RegionSize is the side of the square communication regions the paper's
// region-based selector uses.
const RegionSize = 3

// regions enumerates all 3x3 windows of a WxH mesh.
func regions(w, h int) []Region {
	var out []Region
	for y := 0; y+RegionSize <= h; y++ {
		for x := 0; x+RegionSize <= w; x++ {
			r := Region{X0: x, Y0: y}
			for dy := 0; dy < RegionSize; dy++ {
				for dx := 0; dx < RegionSize; dx++ {
					r.ids = append(r.ids, (y+dy)*w+(x+dx))
				}
			}
			out = append(out, r)
		}
	}
	return out
}

// overlaps reports whether two regions share any router.
func (r Region) overlaps(o Region) bool {
	return abs(r.X0-o.X0) < RegionSize && abs(r.Y0-o.Y0) < RegionSize
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// SelectRegionBased implements the Section 3.2.2 application-specific
// selector: it alternates between placing a pair shortcut (the max-F*W
// pair, as in SelectMaxCost) and placing a region shortcut. A region step
// picks the pair of non-overlapping 3x3 regions (I,J) maximizing
// C_Region(I,J), then adds the best eligible edge (i,j) with i in I and
// j in J. This lets multiple shortcuts serve a single hotspot by placing
// their endpoints at routers near the hotspot, which pure pair selection
// forbids via the one-port-per-router rule.
//
// p.Freq must be non-nil and p.MeshW/p.MeshH must be set.
func SelectRegionBased(g *graph.Digraph, p Params) []Edge {
	return selectRegion(g, p).out
}

func selectRegion(g *graph.Digraph, p Params) *selection {
	if p.Freq == nil {
		panic("shortcut: SelectRegionBased requires a frequency matrix")
	}
	if p.MeshW < RegionSize || p.MeshH < RegionSize {
		panic("shortcut: SelectRegionBased requires mesh dimensions")
	}
	regs := regions(p.MeshW, p.MeshH)
	s := newSelection(g, p)
	for len(s.out) < p.Budget {
		var e Edge
		var ok bool
		if len(s.out)%2 == 0 {
			e, ok = s.bestPair()
			if !ok {
				e, ok = s.bestRegionEdge(regs)
			}
		} else {
			e, ok = s.bestRegionEdge(regs)
			if !ok {
				// No region pair has remaining frequency; fall back to
				// pair placement so the budget is not wasted.
				e, ok = s.bestPair()
			}
		}
		if !ok {
			break
		}
		s.take(e)
	}
	return s
}

// bestRegionEdge finds the max-C_Region non-overlapping region pair and
// returns the best edge inside it. Region pairs with zero cost are
// skipped; if the best region pair yields no eligible edge the next best
// pair is tried, in descending cost and, among equal costs, in (I,J)
// enumeration order.
//
// Within the chosen region pair (I,J) the edge endpoints are picked by
// traffic proximity: the source i in I (with a free outbound port)
// closest to I's heavy senders and the destination j in J (free inbound
// port) closest to J's heavy receivers, weighted by message counts. This
// is what lets a second or third shortcut serve a hotspot whose own
// inbound port is already taken: the edge lands on an unused neighbor.
func (s *selection) bestRegionEdge(regs []Region) (Edge, bool) {
	// C_Region(A,B) = sum over x in A, y in B of F(x,y) * W(x,y), summed
	// per source router first: into[x*nr+b] is x's cost into region b.
	// Traffic counts regardless of whether the routers' shortcut ports
	// are taken -- that is exactly the point of region-based selection: a
	// hotspot with an occupied port still attracts shortcuts to its
	// neighbors.
	nr := len(regs)
	into := make([]int64, len(s.d)*nr)
	for x, row := range s.d {
		for bi, b := range regs {
			var c int64
			for _, y := range b.ids {
				if f := freqAt(s.p.Freq, x, y); f != 0 && x != y {
					c += f * int64(row[y])
				}
			}
			into[x*nr+bi] = c
		}
	}
	type scored struct {
		a, b int
		c    int64
	}
	var pairs []scored
	for ai, a := range regs {
		for bi, b := range regs {
			if ai == bi || a.overlaps(b) {
				continue
			}
			var c int64
			for _, x := range a.ids {
				c += into[x*nr+bi]
			}
			if c > 0 {
				pairs = append(pairs, scored{ai, bi, c})
			}
		}
	}
	// Descending cost; equal costs keep enumeration order.
	slices.SortFunc(pairs, func(x, y scored) int {
		if x.c != y.c {
			return cmp.Compare(y.c, x.c)
		}
		return cmp.Compare(x.a*nr+x.b, y.a*nr+y.b)
	})
	for _, pr := range pairs {
		if e, ok := s.regionPairEdge(regs[pr.a], regs[pr.b]); ok {
			return e, true
		}
	}
	return Edge{}, false
}

// regionPairEdge picks the concrete edge (i,j), i in A, j in B, for a
// region step. Endpoint scores weight each flow (x in A) -> (y in B) by
// 1/(1+dist(candidate, flow endpoint)), so candidates sitting on or next
// to the traffic score highest.
func (s *selection) regionPairEdge(a, b Region) (Edge, bool) {
	d := s.d
	bestSrc, bestDst := -1, -1
	var bestSrcScore, bestDstScore float64 = -1, -1
	for _, i := range a.ids {
		if s.src[i] || !s.elig[i] {
			continue
		}
		var sc float64
		for _, x := range a.ids {
			for _, y := range b.ids {
				if f := freqAt(s.p.Freq, x, y); f != 0 && x != y {
					sc += float64(f) * float64(d[x][y]) / float64(1+d[i][x])
				}
			}
		}
		if sc > bestSrcScore {
			bestSrcScore, bestSrc = sc, i
		}
	}
	for _, j := range b.ids {
		if s.dst[j] || !s.elig[j] {
			continue
		}
		var sc float64
		for _, x := range a.ids {
			for _, y := range b.ids {
				if f := freqAt(s.p.Freq, x, y); f != 0 && x != y {
					sc += float64(f) * float64(d[x][y]) / float64(1+d[j][y])
				}
			}
		}
		if sc > bestDstScore {
			bestDstScore, bestDst = sc, j
		}
	}
	if bestSrc < 0 || bestDst < 0 || bestSrc == bestDst {
		return Edge{}, false
	}
	if d[bestSrc][bestDst] < s.p.minDist() {
		return Edge{}, false
	}
	return Edge{From: bestSrc, To: bestDst}, true
}

// SelectAdaptive is the adaptive design's selection (Section 3.2.2): it
// runs both application-specific Figure 3 heuristics under p.Freq -- the
// region-based selector and the permutation-graph greedy -- and keeps the
// set with the lower F*W objective, the region-based set on a tie. (The
// paper found its two heuristics comparable and kept the cheaper one.)
// p must satisfy SelectRegionBased's requirements.
func SelectAdaptive(g *graph.Digraph, p Params) []Edge {
	region := selectRegion(g, p)
	greedy := selectGreedy(g, p)
	if graph.WeightedCost(region.d, p.Freq) <= graph.WeightedCost(greedy.d, p.Freq) {
		return region.out
	}
	return greedy.out
}

// Apply returns a clone of g augmented with the selected shortcuts as
// weight-1 edges.
func Apply(g *graph.Digraph, edges []Edge) *graph.Digraph {
	out := g.Clone()
	for _, e := range edges {
		out.AddEdge(e.From, e.To, 1)
	}
	return out
}

// Validate checks that a shortcut set satisfies the paper's constraints:
// within budget, unique source and destination ports, eligible endpoints.
// It returns a descriptive error for the first violation found.
func Validate(edges []Edge, p Params) error {
	if len(edges) > p.Budget {
		return fmt.Errorf("shortcut: %d edges exceed budget %d", len(edges), p.Budget)
	}
	srcs := map[int]bool{}
	dsts := map[int]bool{}
	for _, e := range edges {
		if e.From == e.To {
			return fmt.Errorf("shortcut: self edge at %d", e.From)
		}
		if !p.eligible(e.From) {
			return fmt.Errorf("shortcut: ineligible source %d", e.From)
		}
		if !p.eligible(e.To) {
			return fmt.Errorf("shortcut: ineligible destination %d", e.To)
		}
		if srcs[e.From] {
			return fmt.Errorf("shortcut: router %d has two outbound shortcuts", e.From)
		}
		if dsts[e.To] {
			return fmt.Errorf("shortcut: router %d has two inbound shortcuts", e.To)
		}
		srcs[e.From] = true
		dsts[e.To] = true
	}
	return nil
}
