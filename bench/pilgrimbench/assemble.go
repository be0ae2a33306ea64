package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pilgrim/internal/g5k"
	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platgen"
	"pilgrim/internal/sim"
	"pilgrim/internal/store"
)

// assembly is one pilgrimd-shaped server: what cmd/pilgrimd's run() builds
// from `-platforms g5k_test [-data-dir DIR]` with every other flag at its
// default. The binary-parity probe holds this copy to the shipped daemon.
type assembly struct {
	registry *pilgrim.Registry
	server   *pilgrim.Server
	entry    pilgrim.PlatformEntry // as registered (base epoch)

	// platgenSpan is the time spent in platgen.Generate + Platform.Compile
	// (measured only when the assembly was asked to time it).
	platgenSpan time.Duration
	hosts       int
	links       int
	// storeOpenSpan is the time store.Open took on the data directory.
	storeOpenSpan time.Duration
}

type assembleOptions struct {
	dataDir string
	// timeLayers compiles the platform as its own step so platgen can be
	// timed apart from Registry.Add; the result is the same snapshot.
	timeLayers bool
	// wrapStorage decorates the durable backend (the traced run's timing
	// decorator); nil leaves the *store.WAL in place as pilgrimd does.
	wrapStorage func(pilgrim.Storage) pilgrim.Storage
}

func assemble(o assembleOptions) (*assembly, error) {
	a := &assembly{}
	cfg := sim.DefaultConfig()

	a.registry = pilgrim.NewRegistry()
	a.registry.SetTimelineDepth(pilgrim.DefaultTimelineDepth)
	a.registry.SetForecastHorizon(pilgrim.DefaultForecastHorizon)
	if o.dataDir != "" {
		t0 := time.Now()
		w, recovered, err := store.Open(store.Options{
			Dir:          o.dataDir,
			Fsync:        store.FsyncInterval,
			CompactEvery: store.DefaultCompactEvery,
		})
		if err != nil {
			return nil, fmt.Errorf("opening data directory: %w", err)
		}
		a.storeOpenSpan = time.Since(t0)
		var backend pilgrim.Storage = w
		if o.wrapStorage != nil {
			backend = o.wrapStorage(w)
		}
		if err := a.registry.SetStorage(backend, recovered); err != nil {
			w.Close()
			return nil, err
		}
	}

	t0 := time.Now()
	plat, err := platgen.Generate(g5k.Default(), platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		a.registry.Close()
		return nil, fmt.Errorf("generating %s: %w", platformName, err)
	}
	if o.timeLayers {
		plat.Snapshot() // memoized: Registry.Add below reuses it
		a.platgenSpan = time.Since(t0)
	}
	a.entry = pilgrim.PlatformEntry{Platform: plat, Config: cfg}
	if err := a.registry.Add(platformName, a.entry); err != nil {
		a.registry.Close()
		return nil, err
	}
	a.hosts, a.links = plat.NumHosts(), plat.NumLinks()

	a.server = pilgrim.NewServer(a.registry, nil)
	a.server.SetEvaluateLimits(pilgrim.DefaultMaxScenarios, pilgrim.DefaultMaxEvaluateCells)
	a.server.SetDifferentialEval(true)
	a.server.SetLegacyJSON(false)
	a.server.SetAdmission(0, 64, 0)
	a.server.SetMaxBodyBytes(pilgrim.DefaultMaxBodyBytes)
	return a, nil
}

// handler is what the assembly is served through: the server itself, or
// the traced run's span-recording wrapper around it.
func (a *assembly) handler(tr *tracer) http.Handler {
	if tr != nil {
		return tr.wrap(a.server)
	}
	return a.server
}

// live is an assembly being served on a loopback TCP listener in this
// process.
type live struct {
	*assembly
	base   string // http://127.0.0.1:port
	cancel context.CancelFunc
	done   chan error
}

// serve puts handler (the assembly's server, possibly wrapped) on a
// 127.0.0.1:0 listener through the same pilgrim.ServeListener pilgrimd's
// pilgrim.Serve ends in.
func (a *assembly) serve(handler http.Handler) (*live, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	lv := &live{assembly: a, base: "http://" + l.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { lv.done <- pilgrim.ServeListener(ctx, l, handler, pilgrim.ServeOptions{}) }()
	return lv, nil
}

// stop drains the listener and closes the registry (flushing the store),
// returning once the serving goroutine has exited.
func (lv *live) stop() error {
	lv.cancel()
	err := <-lv.done
	if cerr := lv.registry.Close(); err == nil {
		err = cerr
	}
	return err
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer // the last answer; reused across requests
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole answer into the client's
// reused buffer (valid until the next call).
func (c *client) do(method, path string, body []byte) (status int, answer []byte, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body) // net/http sizes and replays a *bytes.Reader itself
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// copyDir copies the flat directory src into dst (the prepared WAL
// directory holds only regular files).
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			return fmt.Errorf("copying %s: unexpected subdirectory %s", src, e.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
