package machine_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"rtsads/internal/experiment"
	"rtsads/internal/machine"
	"rtsads/internal/obs"
	"rtsads/internal/workload"
)

// TestJournalDigest pins the full event order of one paper-sized instance
// (P = 10, 1000 bursty transactions, seed 1), not only its counts: a purge
// journals one entry per task in batch order, so a change to how the batch
// keeps its order or drops tasks shows here even when every count agrees.
// The digest covers each entry's (type, task, worker, virtual) in journal
// order; wall times are excluded.
func TestJournalDigest(t *testing.T) {
	want := map[experiment.Algorithm]string{
		experiment.RTSADS: "ee4099794b7fc10f208fd1015331e88380d7a1a890afae0f1db29fd98b8d8917",
		experiment.DCOLS:  "0e5b254037cc02d281bbe14c568b7efea07b53551a2971274c4885bcf26793d5",
	}
	w, err := workload.Generate(workload.DefaultParams(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []experiment.Algorithm{experiment.RTSADS, experiment.DCOLS} {
		pl, err := experiment.NewPlanner(algo, w, experiment.DefaultRunConfig())
		if err != nil {
			t.Fatal(err)
		}
		o := obs.New(1 << 16)
		m, err := machine.New(machine.Config{Workers: w.Params.Workers, Planner: pl, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(w.Tasks); err != nil {
			t.Fatal(err)
		}
		if ev := o.Journal().Evicted(); ev != 0 {
			t.Fatalf("%s: journal evicted %d entries; raise its capacity", algo, ev)
		}
		h := sha256.New()
		var buf [8]byte
		entries := o.Journal().Snapshot()
		for _, e := range entries {
			h.Write([]byte(e.Type))
			for _, v := range []int64{int64(e.Task), int64(e.Worker), int64(e.Virtual)} {
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				h.Write(buf[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[algo] {
			t.Errorf("%s: journal digest over %d entries = %s, want %s", algo, len(entries), got, want[algo])
		}
	}
}
