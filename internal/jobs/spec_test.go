package jobs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"valuespec/internal/bench"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/harness"
	"valuespec/internal/mem"
	"valuespec/internal/vpred"
)

// nullObserver marks a spec as carrying a non-serializable attachment.
type nullObserver struct{}

func (nullObserver) Observe(cpu.Event) {}

// testWorkload is the suite's first workload; scale 2 keeps runs instant.
func testWorkload(t *testing.T) bench.Workload {
	t.Helper()
	return bench.All()[0]
}

func TestSimSpecValidate(t *testing.T) {
	w := testWorkload(t)
	good := SimSpec{Workload: w.Name, Scale: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	paperMem := cpu.Config8x48().Normalize().Mem
	withMem := func(edit func(*mem.HierarchyConfig)) cpu.Config {
		m := paperMem
		edit(&m)
		return cpu.Config{Mem: m}
	}
	slowModel := core.Great()
	slowModel.Lat.VerifyBranch = MaxLatency + 1
	cases := []SimSpec{
		{Workload: "nope"},
		{Workload: w.Name, Update: "X"},
		{Workload: w.Name, Model: &core.Model{}}, // unnamed model
		// The envelope: each bounded field one step past its bound.
		{Workload: w.Name, Scale: MaxScaleFactor*w.DefaultScale + 1},
		{Workload: w.Name, Config: cpu.Config{IssueWidth: MaxIssueWidth + 1, WindowSize: MaxWindowSize}},
		{Workload: w.Name, Config: cpu.Config{WindowSize: MaxWindowSize + 1}},
		{Workload: w.Name, Config: cpu.Config{DCachePorts: -1}},
		{Workload: w.Name, Config: cpu.Config{BranchHistoryBits: 40}},
		{Workload: w.Name, Config: withMem(func(m *mem.HierarchyConfig) { m.L2.SizeBytes = 2 * MaxCacheBytes })},
		{Workload: w.Name, Config: withMem(func(m *mem.HierarchyConfig) { m.L1D.BlockBytes = MinCacheBlockBytes / 2 })},
		{Workload: w.Name, Config: withMem(func(m *mem.HierarchyConfig) { m.L1I.Assoc = MaxCacheAssoc + 1 })},
		{Workload: w.Name, Config: withMem(func(m *mem.HierarchyConfig) { m.L1I.SizeBytes = 3000 })}, // not a power of two
		{Workload: w.Name, Config: withMem(func(m *mem.HierarchyConfig) { m.MemLat = MaxLatency + 1 })},
		{Workload: w.Name, Config: withMem(func(m *mem.HierarchyConfig) { m.L2HitLat = -1 })},
		{Workload: w.Name, Model: &slowModel},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("spec %+v validated, want error", c)
		}
	}

	// The bounds themselves are inside the envelope.
	great := core.Great()
	great.Lat.ExecEqVerify = MaxLatency
	edge := SimSpec{Workload: w.Name, Scale: MaxScaleFactor * w.DefaultScale, Model: &great,
		Config: cpu.Config{IssueWidth: MaxIssueWidth, WindowSize: MaxWindowSize,
			BranchHistoryBits: MaxBranchHistoryBits, MaxCycles: 1<<62 + 1,
			Mem: withMem(func(m *mem.HierarchyConfig) {
				m.L2 = mem.CacheConfig{Name: "L2", SizeBytes: MaxCacheBytes, BlockBytes: MinCacheBlockBytes, Assoc: MaxCacheAssoc}
				m.MemLat = MaxLatency
			}).Mem}}
	if err := edge.Validate(); err != nil {
		t.Errorf("spec at the envelope's edge rejected: %v", err)
	}
}

// TestEnvelopeAcceptsClients: every spec the repository's own clients send
// lies inside the envelope — the distinct specs of every closure-free study
// of vsweep -all at the default scale, the one request vsweep -submit sends
// for them, and the nonce-steered scale-1 and default-scale specs of vsload
// and perfbench's service mix — and that request's body stays well under
// MaxRequestBytes.
func TestEnvelopeAcceptsClients(t *testing.T) {
	sent, _ := submittable(vsweepStudies(cpu.PaperConfigs(), bench.All(), 0))
	specs := distinctSpecs(t, sent...)
	if len(specs) != 640 {
		t.Errorf("the closure-free studies of vsweep -all ask for %d distinct specs, want 640", len(specs))
	}
	req := Request{Name: "vsweep"}
	for _, hs := range specs {
		ss, err := FromHarness(hs)
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Validate(); err != nil {
			t.Errorf("vsweep spec %s rejected: %v", ss.Label(), err)
		}
		for _, scale := range []int{0, 1} {
			nonced := ss
			nonced.Scale = scale
			nonced.Config.MaxCycles = 1<<40 + 1<<30 // a nonce, as vsload and perfbench set it
			if err := nonced.Validate(); err != nil {
				t.Errorf("client spec %s rejected: %v", nonced.Label(), err)
			}
		}
		req.Specs = append(req.Specs, ss)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d specs in a %d-byte request", len(req.Specs), len(body))
	if len(body) > MaxRequestBytes/4 {
		t.Errorf("a %d-spec client body is %d bytes, within 4x of MaxRequestBytes %d", len(req.Specs), len(body), MaxRequestBytes)
	}
}

// TestRequestHashCanonical checks the content address: equivalent spellings
// of the same simulation hash identically, different simulations differ, and
// the scheduling fields never contribute.
func TestRequestHashCanonical(t *testing.T) {
	w := testWorkload(t)
	base := Request{Specs: []SimSpec{{Workload: w.Name, Scale: w.DefaultScale}}}
	h1, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if len(h1) != 64 || !validHash(h1) {
		t.Fatalf("hash %q is not 64 hex chars", h1)
	}

	// Default scale spelled implicitly, config spelled with explicit
	// defaults, scheduling fields set: all the same address.
	same := []Request{
		{Specs: []SimSpec{{Workload: w.Name}}},
		{Specs: []SimSpec{{Workload: w.Name, Config: cpu.Config8x48()}}},
		{Specs: []SimSpec{{Workload: w.Name, Config: resolveConfig(cpu.Config{})}}},
		{Name: "named", Priority: 9, TimeoutSeconds: 60,
			Specs: []SimSpec{{Workload: w.Name}}},
	}
	for i, r := range same {
		h, err := r.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h != h1 {
			t.Errorf("equivalent request %d hashes to %s, want %s", i, h, h1)
		}
	}

	model := core.Super()
	different := []Request{
		{Specs: []SimSpec{{Workload: w.Name, Scale: w.DefaultScale + 1}}},
		{Specs: []SimSpec{{Workload: w.Name, Model: &model}}},
		{Specs: []SimSpec{{Workload: w.Name}, {Workload: w.Name}}},
	}
	for i, r := range different {
		h, err := r.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h == h1 {
			t.Errorf("distinct request %d collides with the base hash", i)
		}
	}

	// "I" and "" are the same update timing; "D" is not.
	mi := Request{Specs: []SimSpec{{Workload: w.Name, Model: &model}}}
	mI := Request{Specs: []SimSpec{{Workload: w.Name, Model: &model, Update: "I"}}}
	mD := Request{Specs: []SimSpec{{Workload: w.Name, Model: &model, Update: "D"}}}
	hi, _ := mi.Hash()
	hI, _ := mI.Hash()
	hD, _ := mD.Hash()
	if hi != hI {
		t.Error("implicit and explicit immediate update hash differently")
	}
	if hi == hD {
		t.Error("immediate and delayed update collide")
	}
}

func TestSimSpecHarnessRoundTrip(t *testing.T) {
	w := testWorkload(t)
	model := core.Great()
	s := SimSpec{Workload: w.Name, Scale: 3, Model: &model, Update: "D", Oracle: true}
	hs, err := s.ToHarness()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromHarness(hs)
	if err != nil {
		t.Fatal(err)
	}
	if back.Workload != s.Workload || back.Scale != s.Scale ||
		back.Update != "D" || !back.Oracle || back.Model == nil ||
		back.Model.Name != "great" {
		t.Errorf("round trip mangled the spec: %+v", back)
	}

	// Non-serializable specs are refused, not silently dropped.
	bad := hs
	bad.Observer = nullObserver{}
	if _, err := FromHarness(bad); err == nil {
		t.Error("spec with an observer serialized, want error")
	}
	bad = hs
	bad.NewPredictor = func() vpred.Predictor { return nil }
	if _, err := FromHarness(bad); err == nil {
		t.Error("spec with a predictor factory serialized, want error")
	}
}

// TestResultSetWriteCSV: one row per spec under the header, each as wide as
// the header when read back through encoding/csv, even where a client named
// its model with a comma and quotes.
func TestResultSetWriteCSV(t *testing.T) {
	w := testWorkload(t)
	res, err := harness.SimulateAll([]harness.Spec{{Workload: w, Scale: 2, Config: cpu.Config8x48()}})
	if err != nil {
		t.Fatal(err)
	}
	odd := core.Great()
	odd.Name = `great, "v2"`
	rs := &ResultSet{
		SpecHash: strings.Repeat("a", 64),
		Results: []SpecResult{
			{Spec: SimSpec{Workload: w.Name, Scale: 2}, Stats: res[0].Stats},
			{Spec: SimSpec{Workload: w.Name, Scale: 2, Model: &odd}, Stats: res[0].Stats},
		},
	}
	var buf bytes.Buffer
	if err := rs.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "workload,scale,config,model,setting,") {
		t.Errorf("header = %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("result CSV does not parse: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("CSV has %d rows, want header + 2", len(rows))
	}
	for i, row := range rows[1:] {
		if len(row) != len(rows[0]) {
			t.Errorf("row %d has %d cells, header has %d", i+1, len(row), len(rows[0]))
		}
	}
	if rows[1][0] != w.Name || rows[1][1] != "2" {
		t.Errorf("row 1 = %q", rows[1][:5])
	}
	if rows[2][3] != odd.Name {
		t.Errorf("model cell = %q, want %q", rows[2][3], odd.Name)
	}
}
