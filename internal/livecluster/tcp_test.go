package livecluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"rtsads/internal/federation/wire"
	"rtsads/internal/simtime"
	"rtsads/internal/workload"
)

// serveOne runs ServeWorkerContext on a fresh loopback listener and returns
// the listener address plus the channel its error lands on.
func serveOne(t *testing.T, ctx context.Context, opt ServeOptions) (string, <-chan error) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	errc := make(chan error, 1)
	go func() { errc <- ServeWorkerContext(ctx, lis, opt) }()
	return lis.Addr().String(), errc
}

// waitErr fails the test unless the serve goroutine returns within the
// deadline — these are exactly the paths that used to block forever.
func waitErr(t *testing.T, errc <-chan error, within time.Duration) error {
	t.Helper()
	select {
	case err := <-errc:
		return err
	case <-time.After(within):
		t.Fatal("ServeWorker did not return")
		return nil
	}
}

func TestServeWorkerHelloTimeout(t *testing.T) {
	addr, errc := serveOne(t, context.Background(), ServeOptions{HelloTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing: the worker must give up on us instead of waiting forever.
	if err := waitErr(t, errc, 5*time.Second); err == nil {
		t.Error("connection that never sent a hello was accepted")
	} else if !strings.Contains(err.Error(), "hello") {
		t.Errorf("error %q does not mention the hello", err)
	}
}

func TestServeWorkerMalformedEnvelope(t *testing.T) {
	addr, errc := serveOne(t, context.Background(), ServeOptions{HelloTimeout: time.Second})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not an RTFW stream\n")); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, errc, 5*time.Second); err == nil {
		t.Error("malformed preamble accepted as a hello")
	}

	// A well-formed preamble and Hello frame around a malformed payload.
	addr, errc = serveOne(t, context.Background(), ServeOptions{HelloTimeout: time.Second})
	if err := dialPreamble(t, addr).WriteFrame(wire.TypeHello, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, errc, 5*time.Second); err == nil {
		t.Error("malformed hello payload accepted")
	}
}

// dialPreamble opens a host-side connection and exchanges preambles by
// hand, returning the framed connection before any hello.
func dialPreamble(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	conn := wire.NewConn(nc)
	if err := conn.WriteHandshake(); err != nil {
		t.Fatal(err)
	}
	if err := conn.ReadHandshake(); err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestServeWorkerRejectsNonHello(t *testing.T) {
	addr, errc := serveOne(t, context.Background(), ServeOptions{HelloTimeout: time.Second})
	if err := dialPreamble(t, addr).WriteFrame(wire.TypeHeartbeat, nil); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, errc, 5*time.Second); err == nil {
		t.Error("non-hello first message accepted")
	}
}

// TestServeWorkerRefusesForeignWorkerID: a hello naming a worker outside
// its run's [0, Workers) is refused before anything is drawn — served, it
// would hold no replica — however many transactions it claims.
func TestServeWorkerRefusesForeignWorkerID(t *testing.T) {
	for _, id := range []int{-1, 2} {
		p := liveParams(2)
		p.NumTransactions = 50_000_000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		addr, errc := serveOne(t, context.Background(), ServeOptions{HelloTimeout: time.Second})
		sess, err := wire.Dial(addr, 5*time.Second, workerHello{Params: p, WorkerID: id, Scale: 50})
		if err != nil {
			t.Fatal(err)
		}
		err = waitErr(t, errc, 5*time.Second)
		sess.Close()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "outside [0,2)") {
			t.Fatalf("worker %d: err = %v", id, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("worker %d: refusing the hello allocated %d bytes; want < 1 MiB", id, grew)
		}
	}
}

// dialHello opens a host-side session and completes the handshake with the
// given liveness settings, returning the live session — which, never
// started, sends no heartbeats.
func dialHello(t *testing.T, addr string, heartbeat, timeout time.Duration) *wire.Session {
	t.Helper()
	sess, err := wire.Dial(addr, 5*time.Second, workerHello{
		Params:        liveParams(1),
		WorkerID:      0,
		Scale:         50,
		StartUnixNano: time.Now().UnixNano(),
		HeartbeatNano: int64(heartbeat),
		TimeoutNano:   int64(timeout),
	})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestServeWorkerRefusesUnknownTxn: a Jobs frame naming transactions outside
// the table draws one Done per job carrying "unknown transaction", and the
// session goes on to serve a valid job and end cleanly.
func TestServeWorkerRefusesUnknownTxn(t *testing.T) {
	w, err := workload.GenerateTable(liveParams(1))
	if err != nil {
		t.Fatal(err)
	}
	addr, errc := serveOne(t, context.Background(), ServeOptions{HelloTimeout: time.Second})
	sess := dialHello(t, addr, time.Second, 5*time.Second)
	defer sess.Close()
	var jobs []Job
	want := map[int32]string{}
	for i, txn := range hostileTxns(w) {
		jobs = append(jobs, Job{Task: int32(i), Txn: txn, Deadline: simtime.Never})
		want[int32(i)] = fmt.Sprintf("unknown transaction %d", txn)
	}
	valid := int32(len(jobs))
	jobs = append(jobs, Job{Task: valid, Txn: 0, Proc: time.Microsecond, Deadline: simtime.Never})
	want[valid] = ""
	if err := sess.Send(wire.TypeJobs, appendJobs(nil, jobs)); err != nil {
		t.Fatal(err)
	}
	for len(want) > 0 {
		typ, body, err := sess.Recv()
		if err != nil {
			t.Fatalf("waiting for %d completions: %v", len(want), err)
		}
		if typ != wire.TypeDone {
			continue
		}
		d, err := decodeDone(body)
		if err != nil {
			t.Fatal(err)
		}
		e, ok := want[d.Task]
		if !ok || d.Err != e {
			t.Fatalf("completion %+v, want Err %q", d, e)
		}
		delete(want, d.Task)
	}
	if err := sess.Send(wire.TypeBye, nil); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, errc, 5*time.Second); err != nil {
		t.Errorf("worker ended the session with: %v", err)
	}
}

func TestServeWorkerMidRunConnClose(t *testing.T) {
	addr, errc := serveOne(t, context.Background(), ServeOptions{HelloTimeout: time.Second})
	conn := dialHello(t, addr, 20*time.Millisecond, 150*time.Millisecond)
	// Hang up without a bye, as a crashed host would.
	time.Sleep(50 * time.Millisecond)
	conn.Close()
	if err := waitErr(t, errc, 5*time.Second); err == nil {
		t.Error("worker treated an abrupt host hangup as a clean shutdown")
	}
}

func TestServeWorkerHostSilence(t *testing.T) {
	addr, errc := serveOne(t, context.Background(), ServeOptions{HelloTimeout: time.Second})
	conn := dialHello(t, addr, 20*time.Millisecond, 150*time.Millisecond)
	defer conn.Close()
	// Keep the connection open but never send another byte. The worker's
	// idle deadline (agreed in the hello) must end the session.
	if err := waitErr(t, errc, 5*time.Second); err == nil {
		t.Error("silent host kept the worker session alive past the timeout")
	}
}

func TestServeWorkerContextCancelInAccept(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	_, errc := serveOne(t, ctx, ServeOptions{})
	time.Sleep(20 * time.Millisecond)
	cancel()
	// No connection ever arrives; cancellation must still unblock Accept.
	waitErr(t, errc, 5*time.Second)
}

func TestServeWorkerContextCancelMidSession(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	addr, errc := serveOne(t, ctx, ServeOptions{HelloTimeout: time.Second})
	conn := dialHello(t, addr, 50*time.Millisecond, 10*time.Second)
	defer conn.Close()
	time.Sleep(50 * time.Millisecond)
	cancel()
	// The watcher closes the session connection, so the orphaned worker
	// exits even though its idle timeout is far away.
	waitErr(t, errc, 5*time.Second)
}

func TestServeWorkerHeartbeatsKeepSessionAlive(t *testing.T) {
	const workers = 1
	w, err := workload.Generate(liveParams(workers))
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	errc := make(chan error, 1)
	go func() { errc <- ServeWorker(lis) }()

	live := Liveness{HeartbeatEvery: 10 * time.Millisecond, Timeout: 60 * time.Millisecond}
	clock, err := NewClock(50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPBackend(clock, w, []string{lis.Addr().String()}, TCPOptions{Liveness: live})
	if err != nil {
		t.Fatal(err)
	}
	// An idle but heartbeating session must survive far longer than the
	// liveness timeout without either side declaring the other dead.
	deadline := time.After(400 * time.Millisecond)
	for alive := true; alive; {
		select {
		case f := <-b.Failures():
			t.Fatalf("healthy idle session reported failure: %+v", f)
		case <-deadline:
			alive = false
		}
	}
	if err := b.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := waitErr(t, errc, 5*time.Second); err != nil {
		t.Errorf("worker exited with: %v", err)
	}
}

// The fuzz targets feed the worker tier's decoders hostile bytes, with the
// properties the federation/wire targets share: no panic, no allocation
// beyond what the payload carries, and decode∘encode a fixed point. Under
// plain `go test` they run their seed corpus only.

func FuzzDecodeJobs(f *testing.F) {
	f.Add(appendJobs(nil, nil))
	f.Add(appendJobs(nil, []Job{{}}))
	f.Add(appendJobs(nil, []Job{
		{Task: 7, Txn: 3, Proc: 2 * time.Millisecond, Comm: time.Millisecond, Deadline: 12345},
		{Task: -1, Txn: -1, Proc: -1, Deadline: simtime.Never},
	}))
	f.Add(make([]byte, jobRecordSize-1))
	f.Fuzz(func(t *testing.T, payload []byte) {
		jobs, err := decodeJobs(payload, 99)
		if err != nil {
			if jobs != nil {
				t.Fatalf("rejected payload still yielded %d jobs", len(jobs))
			}
			return
		}
		if len(jobs)*jobRecordSize != len(payload) {
			t.Fatalf("decoded %d jobs from %d bytes", len(jobs), len(payload))
		}
		for _, j := range jobs {
			if j.Ready != 99 {
				t.Fatalf("job %+v not stamped with the arrival instant", j)
			}
		}
		if again := appendJobs(nil, jobs); !bytes.Equal(again, payload) {
			t.Fatalf("encode∘decode changed the payload:\n got %x\nwant %x", again, payload)
		}
	})
}

func FuzzDecodeDone(f *testing.F) {
	f.Add(appendDone(nil, Done{}))
	f.Add(appendDone(nil, Done{Task: 7, Worker: 3, Start: 100, Finish: 250, Matches: 12}))
	f.Add(appendDone(nil, Done{Task: -1, Worker: -1, Start: simtime.Never, Expired: true, Matches: -1, Err: "unknown transaction 9\x00\xff"}))
	f.Add(make([]byte, doneRecordSize-1))
	f.Fuzz(func(t *testing.T, payload []byte) {
		d, err := decodeDone(payload)
		if err != nil {
			return
		}
		if len(d.Err) != len(payload)-doneRecordSize {
			t.Fatalf("Err is %d bytes from a %d-byte payload", len(d.Err), len(payload))
		}
		// Unused flag bits are dropped, so compare values, not bytes.
		again, err := decodeDone(appendDone(nil, d))
		if err != nil || again != d {
			t.Fatalf("decode∘encode changed the completion: %+v → %+v (%v)", d, again, err)
		}
	})
}

func FuzzWorkerHelloJSON(f *testing.F) {
	hello, err := json.Marshal(workerHello{Params: liveParams(2), WorkerID: 1, Scale: 50,
		StartUnixNano: 1 << 60, HeartbeatNano: 2e7, TimeoutNano: 15e7})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hello)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{not json`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var h workerHello
		if json.Unmarshal(payload, &h) != nil {
			return
		}
		once, err := json.Marshal(h)
		if err != nil {
			t.Fatalf("decoded %+v does not re-encode: %v", h, err)
		}
		var again workerHello
		if err := json.Unmarshal(once, &again); err != nil {
			t.Fatalf("re-encoded hello %s does not decode: %v", once, err)
		}
		if twice, _ := json.Marshal(again); !bytes.Equal(once, twice) {
			t.Fatalf("decode∘encode is not a fixed point:\n once %s\ntwice %s", once, twice)
		}
	})
}

// recorder is the far end of a framed connection under recording: every
// flush of a wire.Conn is one Write, so ends holds each frame's end offset
// (the preamble counts as a frame).
type recorder struct {
	net.Conn // nil: only Write is ever called
	stream   []byte
	ends     []int
}

func (r *recorder) Write(p []byte) (int, error) {
	r.stream = append(r.stream, p...)
	r.ends = append(r.ends, len(r.stream))
	return len(p), nil
}

// cuts lists where to tear the recording: at every frame boundary, inside
// every header and inside every payload, and last at its very end — the one
// cut that leaves the session whole.
func (r *recorder) cuts() []int {
	var cuts []int
	start := 0
	for _, end := range r.ends {
		cuts = append(cuts, start, start+2)
		if end-start > 5 {
			cuts = append(cuts, end-1)
		}
		start = end
	}
	return append(cuts, len(r.stream))
}

// TestTornStreams replays one recorded session per direction of the worker
// tier, truncated at every cut: the peer sends that much and then goes
// silent with the connection open. The reader — the serving worker, then the
// host's backend — must give the session up within its bound (the hello
// timeout before the hello is complete, the liveness timeout after), never
// hang or panic, and the one untorn replay must end cleanly.
func TestTornStreams(t *testing.T) {
	live := Liveness{HeartbeatEvery: 10 * time.Millisecond, Timeout: 80 * time.Millisecond, Redials: -1}
	const helloTimeout = 150 * time.Millisecond
	w, err := workload.Generate(liveParams(1))
	if err != nil {
		t.Fatal(err)
	}
	hello, err := json.Marshal(workerHello{Params: w.Params, Scale: 50, StartUnixNano: time.Now().UnixNano(),
		HeartbeatNano: int64(live.HeartbeatEvery), TimeoutNano: int64(live.Timeout)})
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Txn: w.Tasks[0].Payload, Proc: time.Millisecond, Deadline: simtime.Never}

	var host recorder
	hc := wire.NewConn(&host)
	hc.WriteHandshake()
	hc.WriteFrame(wire.TypeHello, hello)
	hc.WriteFrame(wire.TypeJobs, appendJobs(nil, []Job{job, job}))
	hc.WriteFrame(wire.TypeHeartbeat, nil)
	hc.WriteFrame(wire.TypeBye, nil)
	for _, cut := range host.cuts() {
		t.Run(fmt.Sprintf("worker-reads/%d-of-%d", cut, len(host.stream)), func(t *testing.T) {
			addr, errc := serveOne(t, context.Background(), ServeOptions{HelloTimeout: helloTimeout})
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			if _, err := nc.Write(host.stream[:cut]); err != nil {
				t.Fatal(err)
			}
			go io.Copy(io.Discard, nc) // the worker's own frames
			err = waitErr(t, errc, helloTimeout+2*time.Second)
			if whole := cut == len(host.stream); whole != (err == nil) {
				t.Errorf("worker ended a session cut at byte %d of %d with: %v", cut, len(host.stream), err)
			}
		})
	}

	var worker recorder
	wc := wire.NewConn(&worker)
	wc.WriteHandshake()
	wc.WriteFrame(wire.TypeDone, appendDone(nil, Done{Task: 1, Start: 5, Finish: 9}))
	wc.WriteFrame(wire.TypeHeartbeat, nil)
	wc.WriteFrame(wire.TypeDone, appendDone(nil, Done{Task: 2, Start: 9, Finish: 12, Err: "unknown transaction 9"}))
	wc.WriteFrame(wire.TypeBye, nil)
	for _, cut := range worker.cuts() {
		t.Run(fmt.Sprintf("host-reads/%d-of-%d", cut, len(worker.stream)), func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			go func() {
				nc, err := lis.Accept()
				if err != nil {
					return
				}
				defer nc.Close()
				nc.Write(worker.stream[:cut])
				io.Copy(io.Discard, nc) // until the host hangs up
			}()
			clock, err := NewClock(50)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			b, err := NewTCPBackend(clock, w, []string{lis.Addr().String()}, TCPOptions{Liveness: live})
			if cut < worker.ends[0] {
				if err == nil {
					t.Fatalf("backend accepted a worker whose preamble stopped at byte %d", cut)
				}
				if took := time.Since(start); took > live.Timeout+2*time.Second {
					t.Errorf("dial took %v to give up; its bound is %v", took, live.Timeout)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			whole := cut == len(worker.stream)
			want := 0 // completions that arrived whole: frames 1 and 3
			for _, i := range []int{1, 3} {
				if worker.ends[i] <= cut {
					want++
				}
			}
			got := make(chan int)
			go func() {
				n := 0
				for range b.Done() {
					n++
				}
				got <- n
			}()
			wait := live.Timeout + 2*time.Second
			if whole {
				wait = 3 * live.Timeout // long enough for a wrong failure to show
			}
			select {
			case f := <-b.Failures():
				if whole || !f.Fatal {
					t.Errorf("cut at byte %d of %d: failure %+v", cut, len(worker.stream), f)
				}
			case <-time.After(wait):
				if !whole {
					t.Errorf("host kept a session cut at byte %d of %d alive past the %v bound", cut, len(worker.stream), live.Timeout)
				}
			}
			if err := b.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
			if n := <-got; n != want {
				t.Errorf("cut at byte %d of %d: %d completions forwarded, want %d", cut, len(worker.stream), n, want)
			}
		})
	}
}
