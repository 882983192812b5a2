package workload

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/db"
	"rtsads/internal/simtime"
)

func smallParams() Params {
	p := DefaultParams(4)
	p.NumTransactions = 100
	p.DB = db.Config{SubDBs: 5, TuplesPerSub: 100, DomainSize: 10, KeyAttr: 0}
	return p
}

func TestValidate(t *testing.T) {
	if err := DefaultParams(10).Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	tests := []struct {
		name string
		mut  func(*Params)
	}{
		{"zero workers", func(p *Params) { p.Workers = 0 }},
		{"too many workers", func(p *Params) { p.Workers = 100 }},
		{"zero replication", func(p *Params) { p.Replication = 0 }},
		{"replication above one", func(p *Params) { p.Replication = 1.5 }},
		{"zero SF", func(p *Params) { p.SF = 0 }},
		{"zero transactions", func(p *Params) { p.NumTransactions = 0 }},
		{"transactions past the bound", func(p *Params) { p.NumTransactions = MaxTransactions + 1 }},
		{"zero per-iter", func(p *Params) { p.PerIter = 0 }},
		{"negative remote", func(p *Params) { p.RemoteCost = -1 }},
		{"unknown arrival", func(p *Params) { p.Arrival = 0 }},
		{"poisson without rate", func(p *Params) { p.Arrival = Poisson }},
		{"bad db", func(p *Params) { p.DB.SubDBs = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams(10)
			tt.mut(&p)
			if err := p.Validate(); err == nil {
				t.Error("invalid params accepted")
			}
		})
	}
}

func TestGenerateBursty(t *testing.T) {
	w, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Tasks) != 100 || len(w.Txns) != 100 {
		t.Fatalf("generated %d tasks, %d txns", len(w.Tasks), len(w.Txns))
	}
	for i, tk := range w.Tasks {
		if tk.Arrival != 0 {
			t.Errorf("task %d arrival %v, want 0 (bursty)", i, tk.Arrival)
		}
		if tk.Proc <= 0 {
			t.Errorf("task %d has non-positive processing time", i)
		}
		// Deadline = SF × 10 × cost relative to arrival, SF=1.
		want := tk.Arrival.Add(10 * tk.Proc)
		if tk.Deadline != want {
			t.Errorf("task %d deadline %v, want %v", i, tk.Deadline, want)
		}
		if tk.Affinity.Count() == 0 {
			t.Errorf("task %d has empty affinity", i)
		}
	}
}

func TestTaskAffinityMatchesPlacement(t *testing.T) {
	w, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range w.Tasks {
		q := w.Txn(tk)
		if tk.Affinity != w.Placement[q.Sub] {
			t.Fatalf("task %d affinity %v, placement of sub %d is %v",
				tk.ID, tk.Affinity, q.Sub, w.Placement[q.Sub])
		}
	}
}

func TestTaskCostMatchesEstimate(t *testing.T) {
	p := smallParams()
	w, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range w.Tasks {
		q := w.Txn(tk)
		if want := w.DB.EstimateCost(q, p.PerIter); tk.Proc != want {
			t.Fatalf("task %d proc %v, estimate %v", tk.ID, tk.Proc, want)
		}
	}
}

func TestSFScalesDeadlines(t *testing.T) {
	p1 := smallParams()
	p3 := smallParams()
	p3.SF = 3
	w1, err := Generate(p1)
	if err != nil {
		t.Fatal(err)
	}
	w3, err := Generate(p3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w1.Tasks {
		// Same seed: identical transactions, scaled deadlines.
		if w1.Tasks[i].Proc != w3.Tasks[i].Proc {
			t.Fatalf("task %d proc differs across SF", i)
		}
		d1 := w1.Tasks[i].Deadline.Sub(w1.Tasks[i].Arrival)
		d3 := w3.Tasks[i].Deadline.Sub(w3.Tasks[i].Arrival)
		if d3 != 3*d1 {
			t.Fatalf("task %d: SF=3 deadline %v, want 3×%v", i, d3, d1)
		}
	}
}

func TestReplicationIndependentOfTxnContent(t *testing.T) {
	pa := smallParams()
	pb := smallParams()
	pb.Replication = 1.0
	wa, err := Generate(pa)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := Generate(pb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wa.Txns {
		if wa.Txns[i].Sub != wb.Txns[i].Sub || len(wa.Txns[i].Preds) != len(wb.Txns[i].Preds) {
			t.Fatalf("txn %d differs when only replication changed", i)
		}
	}
	// At 100% replication every task is affine with every worker.
	for _, tk := range wb.Tasks {
		if tk.Affinity.Count() != pb.Workers {
			t.Fatalf("task %d affinity %v at R=100%%", tk.ID, tk.Affinity)
		}
	}
}

func TestPoissonArrivalsMonotone(t *testing.T) {
	p := smallParams()
	p.Arrival = Poisson
	p.MeanInterArrival = 100 * time.Microsecond
	w, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var prev simtime.Instant
	positive := false
	for _, tk := range w.Tasks {
		if tk.Arrival.Before(prev) {
			t.Fatal("arrival times not monotone")
		}
		if tk.Arrival.After(prev) {
			positive = true
		}
		prev = tk.Arrival
	}
	if !positive {
		t.Error("all Poisson arrivals identical")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Tasks {
		if a.Tasks[i].Proc != b.Tasks[i].Proc ||
			a.Tasks[i].Deadline != b.Tasks[i].Deadline ||
			a.Tasks[i].Affinity != b.Tasks[i].Affinity {
			t.Fatalf("task %d differs between identical generations", i)
		}
	}
}

func TestTotalWork(t *testing.T) {
	w, err := Generate(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	var want time.Duration
	for _, tk := range w.Tasks {
		want += tk.Proc
	}
	if got := w.TotalWork(); got != want || got <= 0 {
		t.Errorf("TotalWork = %v, want %v", got, want)
	}
}

func TestArrivalKindString(t *testing.T) {
	if Bursty.String() != "bursty" || Poisson.String() != "poisson" {
		t.Error("ArrivalKind names wrong")
	}
	if ArrivalKind(0).String() == "" {
		t.Error("unknown kind has empty name")
	}
}

func TestCostNoise(t *testing.T) {
	p := smallParams()
	p.CostNoise = 0.5
	w, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	shrunk := 0
	for _, tk := range w.Tasks {
		actual := tk.ActualProc()
		if actual > tk.Proc {
			t.Fatalf("task %d actual %v exceeds WCET %v", tk.ID, actual, tk.Proc)
		}
		if actual < time.Duration(0.49*float64(tk.Proc)) {
			t.Fatalf("task %d actual %v below the noise floor of WCET %v", tk.ID, actual, tk.Proc)
		}
		if actual < tk.Proc {
			shrunk++
		}
	}
	if shrunk == 0 {
		t.Error("no task's actual time was below its WCET despite noise")
	}
	// Zero noise means exact estimates.
	p.CostNoise = 0
	w2, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range w2.Tasks {
		if tk.ActualProc() != tk.Proc {
			t.Fatalf("task %d actual differs from WCET without noise", tk.ID)
		}
	}
}

func TestCostNoiseValidation(t *testing.T) {
	p := smallParams()
	p.CostNoise = -0.1
	if err := p.Validate(); err == nil {
		t.Error("negative noise accepted")
	}
	p.CostNoise = 1
	if err := p.Validate(); err == nil {
		t.Error("noise of 1 accepted")
	}
}

func TestRangeProbGeneratesRanges(t *testing.T) {
	p := smallParams()
	p.RangeProb = 0.5
	w, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	ranges := 0
	for i := range w.Txns {
		for _, pred := range w.Txns[i].Preds {
			if pred.Range {
				ranges++
			}
		}
	}
	if ranges == 0 {
		t.Error("RangeProb=0.5 produced no range predicates")
	}
	// Tasks still carry exact worst-case estimates.
	for _, tk := range w.Tasks {
		q := w.Txn(tk)
		if want := w.DB.EstimateCost(q, p.PerIter); tk.Proc != want {
			t.Fatalf("task %d proc %v != estimate %v", tk.ID, tk.Proc, want)
		}
	}
}

func TestRangeProbValidation(t *testing.T) {
	p := smallParams()
	p.RangeProb = -0.1
	if err := p.Validate(); err == nil {
		t.Error("negative RangeProb accepted")
	}
	p.RangeProb = 1.1
	if err := p.Validate(); err == nil {
		t.Error("RangeProb above 1 accepted")
	}
}

func TestPlacementStrategyApplied(t *testing.T) {
	p := smallParams()
	p.Workers = 5
	p.Replication = 0.2 // one copy per sub-database
	p.Placement = affinity.Clustered
	w, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Clustered with one copy: sub s lives on processor s mod workers.
	for s, set := range w.Placement {
		if want := affinity.NewSet(s % p.Workers); set != want {
			t.Errorf("sub %d placed on %v, want %v", s, set, want)
		}
	}
}

func TestSaveLoadTasksRoundTrip(t *testing.T) {
	p := smallParams()
	p.CostNoise = 0.3
	w, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := SaveTasks(&buf, w.Tasks); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTasks(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(w.Tasks) {
		t.Fatalf("loaded %d tasks, want %d", len(got), len(w.Tasks))
	}
	for i, tk := range got {
		orig := w.Tasks[i]
		if tk.ID != orig.ID || tk.Arrival != orig.Arrival || tk.Proc != orig.Proc ||
			tk.Actual != orig.Actual || tk.Deadline != orig.Deadline || tk.Affinity != orig.Affinity {
			t.Fatalf("task %d differs after round trip:\n got %+v\nwant %+v", i, tk, orig)
		}
	}
}

func TestLoadTasksValidation(t *testing.T) {
	tests := []struct {
		name string
		js   string
	}{
		{"garbage", `[{`},
		{"unknown field", `[{"id":1,"bogus":2,"procNanos":1,"deadlineNanos":1,"affinity":[0]}]`},
		{"zero proc", `[{"id":1,"procNanos":0,"deadlineNanos":1,"affinity":[0]}]`},
		{"actual above wcet", `[{"id":1,"procNanos":5,"actualNanos":6,"deadlineNanos":9,"affinity":[0]}]`},
		{"negative arrival", `[{"id":1,"arrivalNanos":-1,"procNanos":5,"deadlineNanos":9,"affinity":[0]}]`},
		{"deadline before arrival", `[{"id":1,"arrivalNanos":9,"procNanos":5,"deadlineNanos":5,"affinity":[0]}]`},
		{"no affinity", `[{"id":1,"procNanos":5,"deadlineNanos":9,"affinity":[]}]`},
		{"affinity out of range", `[{"id":1,"procNanos":5,"deadlineNanos":9,"affinity":[99]}]`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := LoadTasks(strings.NewReader(tt.js)); err == nil {
				t.Errorf("invalid task set accepted: %s", tt.js)
			}
		})
	}
}

// digest hashes everything Generate draws, field by field (never a memory
// layout): the placement, every transaction's predicates and every task.
func digest(w *Workload) string {
	h := fnv.New64a()
	for sub, set := range w.Placement {
		fmt.Fprintln(h, "place", sub, uint64(set))
	}
	for i := range w.Txns {
		q := &w.Txns[i]
		fmt.Fprintln(h, "txn", q.ID, q.Sub, len(q.Preds))
		for _, p := range q.Preds {
			fmt.Fprintln(h, "pred", int(p.Attr), p.Value, p.Range, p.Lo, p.Hi)
		}
	}
	for _, t := range w.Tasks {
		fmt.Fprintln(h, "task", t.ID, int64(t.Arrival), int64(t.Proc), int64(t.Actual),
			int64(t.Deadline), uint64(t.Affinity), t.Payload)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGenerateGolden pins every draw the generator makes: a reordered or
// added draw changes every workload, and with it rtsched's figures. The
// default parameters draw no arrival gaps or cost noise, hence the second
// case.
func TestGenerateGolden(t *testing.T) {
	extended := DefaultParams(10)
	extended.Arrival = Poisson
	extended.MeanInterArrival = 100 * time.Microsecond
	extended.CostNoise = 0.3
	extended.RangeProb = 0.5
	for _, c := range []struct {
		name string
		p    Params
		want string
	}{
		{"default", DefaultParams(10), "46c8161cf2ffa726"},
		{"poisson-noise-ranges", extended, "984d836dbb8be77c"},
	} {
		w, err := Generate(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(w); got != c.want {
			t.Errorf("%s: Generate digest %s, want %s: a draw moved", c.name, got, c.want)
		}
	}
}

// TestGenerateTableMatchesGenerate: the table a shard or worker builds is
// Generate's, field for field, without the task list.
func TestGenerateTableMatchesGenerate(t *testing.T) {
	for _, rangeProb := range []float64{0, 0.5} {
		for _, arrival := range []ArrivalKind{Bursty, Poisson} {
			for _, noise := range []float64{0, 0.3} {
				p := smallParams()
				p.RangeProb = rangeProb
				p.Arrival = arrival
				p.MeanInterArrival = 100 * time.Microsecond
				p.CostNoise = noise
				name := fmt.Sprintf("range=%v/%v/noise=%v", rangeProb, arrival, noise)
				full, err := Generate(p)
				if err != nil {
					t.Fatal(err)
				}
				table, err := GenerateTable(p)
				if err != nil {
					t.Fatal(err)
				}
				if table.Tasks != nil {
					t.Errorf("%s: GenerateTable built %d tasks", name, len(table.Tasks))
				}
				full.Tasks = nil
				if !reflect.DeepEqual(table, full) {
					t.Errorf("%s: GenerateTable differs from Generate's table", name)
				}
			}
		}
	}
}
