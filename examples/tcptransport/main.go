// tcptransport: runs the live cluster as separate host and worker
// endpoints connected over loopback TCP, inside one process for
// convenience. Each "worker node" draws its own database, replica placement
// and transaction table from the workload parameters — nothing but jobs and
// completions crosses the wire — exactly as cmd/rtcluster does across real
// processes.
//
//	go run ./examples/tcptransport
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"rtsads/internal/experiment"
	"rtsads/internal/faultinject"
	"rtsads/internal/livecluster"
	"rtsads/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const workers = 4
	params := workload.DefaultParams(workers)
	params.NumTransactions = 200

	w, err := workload.Generate(params)
	if err != nil {
		return err
	}

	// Bring up one TCP worker per working processor.
	addrs := make([]string, workers)
	serveErr := make(chan error, workers)
	for i := 0; i < workers; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer lis.Close()
		addrs[i] = lis.Addr().String()
		go func() { serveErr <- livecluster.ServeWorker(lis) }()
	}
	fmt.Printf("started %d TCP workers: %v\n", workers, addrs)

	cluster, err := livecluster.New(livecluster.Config{
		Workload:  w,
		Algorithm: experiment.RTSADS,
		Scale:     20,
		Backend: func(clock *livecluster.Clock, inj *faultinject.Injector) (livecluster.Backend, error) {
			return livecluster.NewTCPBackend(clock, w, addrs, livecluster.TCPOptions{Inject: inj})
		},
	})
	if err != nil {
		return err
	}

	start := time.Now()
	res, err := cluster.Run()
	if err != nil {
		return err
	}
	fmt.Printf("RT-SADS over TCP: hit ratio %.1f%% (%d/%d), %d phases, wall time %v\n",
		100*res.HitRatio(), res.Hits, res.Total, res.Phases,
		time.Since(start).Round(time.Millisecond))

	for i := 0; i < workers; i++ {
		if err := <-serveErr; err != nil {
			return fmt.Errorf("worker exited with: %w", err)
		}
	}
	fmt.Println("all workers shut down cleanly")
	return nil
}
