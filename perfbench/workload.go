package main

// Workloads, their generated inputs, and the reference answers the
// verification pass compares against.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"helios/internal/graph"
	"helios/internal/workload"
)

// workloadDef fixes one workload. Rates are absolute and never derived
// from a capacity measured at run time, so a faster build is offered the
// same load.
type workloadDef struct {
	name  string
	spec  func() workload.DatasetSpec
	scale float64
	// low and high are the fixed /sample rates (req/s) of the latency
	// phases.
	low, high float64
	// ingest is the background edge stream (updates/s) running beside the
	// query phases; 0 keeps them read-only.
	ingest float64
	// qLadder holds the query rates the capacity search steps through.
	qLadder []float64
}

// ladder returns n rates from lo growing by factor each step.
func ladder(lo, factor float64, n int) []float64 {
	out := make([]float64, n)
	r := lo
	for i := range out {
		out[i] = float64(int(r))
		r *= factor
	}
	return out
}

// The rates were fixed from the capacities the traced run measured on a
// 2-vCPU host: about 3,500 q/s on read-taobao and 1,000 q/s on INTER
// queries, and about 3,000 edges/s of ingest. low is a sixth of query
// capacity or less and high about half; ingest is a fifth. Higher low
// rates turn other tenants' CPU steal into a p50 spread wider than its
// bound.
var workloads = map[string]workloadDef{
	"read-inter": {
		name: "read-inter", spec: workload.INTER, scale: 0.05,
		low: 150, high: 500, qLadder: ladder(300, 1.12, 15),
	},
	"read-taobao": {
		name: "read-taobao", spec: workload.Taobao, scale: 0.1,
		low: 600, high: 1800, qLadder: ladder(1200, 1.1, 15),
	},
	"mixed-inter": {
		name: "mixed-inter", spec: workload.INTER, scale: 0.05,
		low: 150, high: 500, ingest: 600, qLadder: ladder(300, 1.12, 15),
	},
}

// ingestLadder holds the edge rates the ingest capacity search steps
// through; every workload shares it.
var ingestLadder = ladder(800, 1.12, 15)

// refEdge is one reference sample-cell entry.
type refEdge struct {
	dst graph.VertexID
	ts  graph.Timestamp
}

// inputs are everything one seed generates for a workload.
type inputs struct {
	spec     workload.DatasetSpec
	config   string         // cluster configuration JSON
	load     []graph.Update // bulk load, in stream order
	stream   []graph.Edge   // second-seed edge stream, timestamps above the load
	hopTypes []graph.EdgeType
	fanouts  []int
	cells    []map[graph.VertexID][]refEdge // per hop: newest `fanout` edges per source
	features map[graph.VertexID][]float32
	seeds    []graph.VertexID // query seeds, in request order
	verify   []graph.VertexID // the verification pass's fixed seed set
	probes   []graph.Edge     // freshness probe edges
}

// vertexTypeName and edgeTypeName map schema IDs to the names the HTTP
// gateway takes.
func (in *inputs) vertexTypeName(t graph.VertexType) string {
	return in.spec.Vertices[t].Type
}

func (in *inputs) edgeTypeName(t graph.EdgeType) string {
	return in.spec.Edges[t].Type
}

// queryDSL renders the dataset's Table 2 query with TopK sampling.
func queryDSL(spec workload.DatasetSpec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "g.V('%s')", spec.QuerySeed)
	for _, h := range spec.QueryHops {
		fmt.Fprintf(&b, ".outV('%s').sample(%d).by('TopK')", h.Edge, h.Fanout)
	}
	return b.String()
}

// clusterConfig is the deployment the SUT runs: 2 samplers, 2 servers,
// the dataset's schema and its one query, no overload bounds.
func clusterConfig(spec workload.DatasetSpec) (string, error) {
	type edgeType struct {
		Name string `json:"name"`
		Src  string `json:"src"`
		Dst  string `json:"dst"`
	}
	f := struct {
		Samplers    int        `json:"samplers"`
		Servers     int        `json:"servers"`
		VertexTypes []string   `json:"vertexTypes"`
		EdgeTypes   []edgeType `json:"edgeTypes"`
		Queries     []string   `json:"queries"`
	}{Samplers: 2, Servers: 2, Queries: []string{queryDSL(spec)}}
	for _, v := range spec.Vertices {
		f.VertexTypes = append(f.VertexTypes, v.Type)
	}
	for _, e := range spec.Edges {
		f.EdgeTypes = append(f.EdgeTypes, edgeType{e.Type, e.Src, e.Dst})
	}
	b, err := json.Marshal(f)
	return string(b), err
}

// Sizes of the generated request sequences.
const (
	verifySeeds = 256
	querySeeds  = 1 << 16
	probeEdges  = 4096
	// streamFactor sizes the ingest stream against the loaded edge count,
	// enough for the capacity search on the smallest dataset.
	streamFactor = 4
)

// makeInputs generates a workload's inputs from seed: the bulk-load stream
// (DatasetSpec.Seed = seed), a second-seed edge stream over the same
// vertex space for ingestion, query seeds, probe edges, and the reference
// TopK cells and features of the loaded graph.
func makeInputs(wl workloadDef, seed int64) (*inputs, error) {
	spec := wl.spec().Scale(wl.scale)
	spec.Seed = seed
	gen, err := workload.NewGenerator(spec)
	if err != nil {
		return nil, err
	}
	cfg, err := clusterConfig(spec)
	if err != nil {
		return nil, err
	}
	in := &inputs{spec: spec, config: cfg, features: map[graph.VertexID][]float32{}}
	rng := rand.New(rand.NewSource(seed))
	var maxTs graph.Timestamp
	for _, h := range spec.QueryHops {
		et, ok := gen.Schema().EdgeTypeID(h.Edge)
		if !ok {
			return nil, fmt.Errorf("query edge %q not in schema", h.Edge)
		}
		in.hopTypes = append(in.hopTypes, et)
		in.fanouts = append(in.fanouts, h.Fanout)
		in.cells = append(in.cells, map[graph.VertexID][]refEdge{})
	}
	for {
		u, ok := gen.Next()
		if !ok {
			break
		}
		in.load = append(in.load, u)
		switch u.Kind {
		case graph.UpdateVertex:
			in.features[u.Vertex.ID] = u.Vertex.Feature
		case graph.UpdateEdge:
			in.addRef(u.Edge)
			maxTs = max(maxTs, u.Edge.Ts)
		}
	}

	// The ingest stream: a second generator seed, edges only, shifted
	// above every loaded timestamp so TopK cells churn.
	spec2 := spec.Scale(1)
	spec2.Seed = seed ^ 0x5eed5eed
	for i := range spec2.Edges {
		spec2.Edges[i].Count *= streamFactor
	}
	gen2, err := workload.NewGenerator(spec2)
	if err != nil {
		return nil, err
	}
	for {
		u, ok := gen2.Next()
		if !ok {
			break
		}
		if u.Kind == graph.UpdateEdge {
			u.Edge.Ts += maxTs
			in.stream = append(in.stream, u.Edge)
		}
	}

	// Probe edges sit on the first hop's edge type, with timestamps above
	// the ingest stream's, so the first answer holding one proves the
	// probe itself arrived.
	probeBase := 2 * (maxTs + graph.Timestamp(len(in.stream)))
	srcType, dstType := spec.QuerySeed, spec.Edges[in.hopTypes[0]].Dst
	srcIdx, dstIdx := typeIndex(spec, srcType), typeIndex(spec, dstType)
	for i := 0; i < probeEdges; i++ {
		in.probes = append(in.probes, graph.Edge{
			Src:  workload.VertexIDFor(srcIdx, rng.Intn(spec.Vertices[srcIdx].Count)),
			Dst:  workload.VertexIDFor(dstIdx, rng.Intn(spec.Vertices[dstIdx].Count)),
			Type: in.hopTypes[0], Ts: probeBase + graph.Timestamp(i), Weight: 1,
		})
	}

	seen := map[graph.VertexID]bool{}
	nSeeds := spec.Vertices[srcIdx].Count
	for len(in.verify) < min(verifySeeds, nSeeds) {
		v := gen.SeedVertex(rng)
		if !seen[v] {
			seen[v] = true
			in.verify = append(in.verify, v)
		}
	}
	sort.Slice(in.verify, func(i, j int) bool { return in.verify[i] < in.verify[j] })
	for i := 0; i < querySeeds; i++ {
		in.seeds = append(in.seeds, gen.SeedVertex(rng))
	}
	return in, nil
}

func typeIndex(spec workload.DatasetSpec, name string) int {
	for i, v := range spec.Vertices {
		if v.Type == name {
			return i
		}
	}
	return -1
}

// addRef folds one loaded edge into the reference cells. Timestamps are
// unique and increasing, so the newest `fanout` edges of a cell are
// exactly what TopK must hold.
func (in *inputs) addRef(e graph.Edge) {
	for hop, et := range in.hopTypes {
		if e.Type != et {
			continue
		}
		cell := append(in.cells[hop][e.Src], refEdge{dst: e.Dst, ts: e.Ts})
		if len(cell) > in.fanouts[hop] {
			cell = cell[1:]
		}
		in.cells[hop][e.Src] = cell
	}
}

// answer is the decoded /sample body.
type answer struct {
	Layers [][]uint64 `json:"layers"`
	Edges  []struct {
		Hop    int    `json:"hop"`
		Parent uint64 `json:"parent"`
		Child  uint64 `json:"child"`
		Ts     int64  `json:"ts"`
	} `json:"edges"`
	Features map[string][]float32 `json:"features"`
	Misses   int                  `json:"misses"`
	Trace    string               `json:"trace"`
}

// check compares one answer with the reference: layer 0 is the seed,
// each parent's edges are exactly its reference cell (any order), each
// layer lists the previous layer's children in order, and every vertex
// carries its latest ingested feature — except a seed with no first-hop
// edges, which no cache subscribes to (a feature miss by design).
func (in *inputs) check(seed graph.VertexID, a *answer) error {
	if len(a.Layers) != len(in.hopTypes)+1 || len(a.Layers[0]) != 1 || a.Layers[0][0] != uint64(seed) {
		return fmt.Errorf("seed %d: bad layer shape %d", seed, len(a.Layers))
	}
	next := 0
	misses := 0
	for hop := range in.hopTypes {
		var children []uint64
		for _, p := range a.Layers[hop] {
			want := in.cells[hop][graph.VertexID(p)]
			if len(want) == 0 {
				misses++
				continue
			}
			if next+len(want) > len(a.Edges) {
				return fmt.Errorf("seed %d: hop %d parent %d: answer has too few edges", seed, hop, p)
			}
			got := a.Edges[next : next+len(want)]
			next += len(want)
			gotTs := make([]refEdge, len(got))
			for i, e := range got {
				if e.Hop != hop || e.Parent != p {
					return fmt.Errorf("seed %d: edge %d is hop %d parent %d, want hop %d parent %d",
						seed, next, e.Hop, e.Parent, hop, p)
				}
				gotTs[i] = refEdge{dst: graph.VertexID(e.Child), ts: graph.Timestamp(e.Ts)}
				children = append(children, e.Child)
			}
			sort.Slice(gotTs, func(i, j int) bool { return gotTs[i].ts < gotTs[j].ts })
			for i := range want {
				if gotTs[i] != want[i] {
					return fmt.Errorf("seed %d: hop %d parent %d: cell differs from the newest %d edges",
						seed, hop, p, in.fanouts[hop])
				}
			}
		}
		if !equalIDs(children, a.Layers[hop+1]) {
			return fmt.Errorf("seed %d: layer %d does not list hop %d's children", seed, hop+1, hop)
		}
	}
	if next != len(a.Edges) {
		return fmt.Errorf("seed %d: %d unexpected edges", seed, len(a.Edges)-next)
	}
	distinct := map[uint64]bool{}
	for _, layer := range a.Layers {
		for _, v := range layer {
			distinct[v] = true
		}
	}
	if len(in.cells[0][seed]) == 0 {
		delete(distinct, uint64(seed))
		misses++
	}
	if len(a.Features) != len(distinct) {
		return fmt.Errorf("seed %d: %d features for %d vertices", seed, len(a.Features), len(distinct))
	}
	for v := range distinct {
		got := a.Features[strconv.FormatUint(v, 10)]
		want, ok := in.features[graph.VertexID(v)]
		if !ok || len(got) != len(want) {
			return fmt.Errorf("seed %d: vertex %d feature missing or mis-sized", seed, v)
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("seed %d: vertex %d feature differs at %d", seed, v, i)
			}
		}
	}
	if a.Misses != misses {
		return fmt.Errorf("seed %d: answer reports %d misses, reference %d", seed, a.Misses, misses)
	}
	return nil
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
