package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"llbp/internal/experiments"
	"llbp/internal/harness"
	"llbp/internal/service"
	"llbp/internal/service/client"
	"llbp/internal/session"
	"llbp/internal/telemetry"
	"llbp/internal/trace/cache"
)

// Daemon settings, as cmd/llbpd's defaults set them.
const (
	daemonLeaseTTL     = 30 * time.Second
	daemonStreamWrite  = 30 * time.Second
	daemonQueueDepth   = 16
	daemonMaxSessions  = 64
	daemonCkptBranches = 25_000
	daemonWarmup       = 200_000
	daemonMeasure      = 1_000_000
)

// daemon is an in-process llbpd: the job service and the session manager
// on one loopback listener, wired the way cmd/llbpd wires them with
// -journal set (cell journal, job log and session journal all on).
type daemon struct {
	journal   *harness.Journal
	srv       *service.Server
	sm        *session.Manager
	httpSrv   *http.Server
	serveErr  chan error
	stopSweep chan struct{}
	sweepDone chan struct{}
	cl        *client.Client
}

// startDaemon boots a daemon whose journals live in dir. workers is
// llbpd's -j: the job worker pool and the harness parallelism.
func startDaemon(dir string, workers int) (*daemon, error) {
	reg := telemetry.NewRegistry()
	reg.SetClock(func() int64 { return time.Now().UnixMilli() })
	jpath := filepath.Join(dir, "llbpd.journal")
	j, err := harness.OpenJournal(jpath)
	if err != nil {
		return nil, err
	}
	d := &daemon{journal: j}
	cfg := experiments.Config{
		Warmup:      daemonWarmup,
		Measure:     daemonMeasure,
		Parallelism: workers,
		Telemetry:   reg,
		Journal:     j,
		// A fresh trace cache per daemon is what a freshly started
		// llbpd process has; repeated set-ups in one benchmark process
		// must not inherit each other's synthesized streams.
		TraceCache: cache.New(0),
	}
	cfg.CellProgress = func(key string, processed, total uint64) {
		if d.srv != nil {
			d.srv.CellProgress(key, processed, total)
		}
	}
	h := experiments.NewHarness(cfg)
	d.srv, err = service.New(service.Options{
		Runner:             h,
		Workers:            workers,
		QueueDepth:         daemonQueueDepth,
		LeaseTTL:           daemonLeaseTTL,
		StreamWriteTimeout: daemonStreamWrite,
		Registry:           reg,
		JobLogPath:         jpath + ".jobs",
	})
	if err != nil {
		j.Close()
		return nil, err
	}
	d.sm, err = session.New(session.Options{
		Forker:             h,
		JournalPath:        jpath + ".sessions",
		LeaseTTL:           daemonLeaseTTL,
		CheckpointBranches: daemonCkptBranches,
		MaxSessions:        daemonMaxSessions,
		StreamWriteTimeout: daemonStreamWrite,
		Registry:           reg,
	})
	if err != nil {
		j.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.sm.Shutdown()
		j.Close()
		return nil, err
	}
	d.srv.Start()
	d.stopSweep = make(chan struct{})
	d.sweepDone = make(chan struct{})
	go func() {
		defer close(d.sweepDone)
		tick := time.NewTicker(daemonLeaseTTL / 2)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				d.sm.ExpireLeases()
			case <-d.stopSweep:
				return
			}
		}
	}()
	mux := http.NewServeMux()
	mux.Handle("/v1/session", d.sm.Handler())
	mux.Handle("/v1/session/", d.sm.Handler())
	mux.Handle("/", d.srv.Handler())
	d.httpSrv = &http.Server{Handler: mux}
	d.serveErr = make(chan error, 1)
	go func() { d.serveErr <- d.httpSrv.Serve(ln) }()
	d.cl = client.New(ln.Addr().String(), client.Options{Timeout: time.Minute, Retries: -1})
	return d, nil
}

// idle waits, up to idleWait, until the job service has no queued or
// running job. Both clients are closed loops, so once a unit ends no
// session batch is in flight; a job can still be finishing after its
// client saw "done".
func (d *daemon) idle() {
	for deadline := time.Now().Add(idleWait); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if h := d.srv.Health(); h.Queued == 0 && h.Running == 0 {
			return
		}
	}
}

const idleWait = 5 * time.Second

// close drains and stops the daemon the way llbpd's SIGTERM path does,
// returning once every goroutine it started has ended.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{d.srv.Drain(ctx)}
	if err := d.httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, fmt.Errorf("http shutdown: %w", err))
	}
	if err := <-d.serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, fmt.Errorf("serve: %w", err))
	}
	close(d.stopSweep)
	<-d.sweepDone
	d.sm.Shutdown()
	errs = append(errs, d.journal.Close())
	return errors.Join(errs...)
}
