package main

import (
	"context"
	"net"
	"net/http"
	"time"

	"smokescreen/internal/server"
	"smokescreen/internal/store"
)

// The values below are cmd/smokescreend's flag defaults. The harness
// assembles its daemons the way that command's run() does and sets nothing a
// default daemon does not: the process-wide pipeline toggles (float rasters,
// delta detection off, output sharing on, 64 MiB render cache, sequential
// raster kernels) are left at their package defaults, which are the same
// values the daemon's flags default to.
const (
	daemonWorkers         = 2
	daemonParallelism     = 0 // one worker goroutine per CPU
	daemonQueueDepth      = 16
	daemonStoreCacheBytes = 64 << 20
	daemonCorrectionLimit = 0.2
	daemonRequestTimeout  = 2 * time.Minute
	daemonJobTimeout      = 10 * time.Minute
)

func daemonGenerator() *server.SystemGenerator {
	return &server.SystemGenerator{CorrectionLimit: daemonCorrectionLimit, Parallelism: daemonParallelism}
}

func daemonServerConfig() server.Config {
	return server.Config{
		Workers:        daemonWorkers,
		QueueDepth:     daemonQueueDepth,
		RequestTimeout: daemonRequestTimeout,
		JobTimeout:     daemonJobTimeout,
	}
}

func openStore(dir string) (*store.Store, error) {
	return store.Open(dir, store.WithCacheBudget(daemonStoreCacheBytes))
}

// listener is one HTTP server on a loopback port.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// serve starts serving handler on ln; stop shuts it down and waits for the
// serving goroutine to return.
func serve(ln net.Listener, handler http.Handler) *listener {
	l := &listener{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: handler},
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // always returns ErrServerClosed after stop
	}()
	return l
}

func (l *listener) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		_ = l.srv.Close() // in-flight handlers outlived the grace period; drop them
	}
	<-l.done
}

// newClient returns the product's own HTTP client with its own keep-alive
// connection pool. Retries are off: a refusal (429/503) is a failed op here,
// not something to paper over.
func newClient(baseURL string) *server.Client {
	return &server.Client{
		BaseURL:    baseURL,
		HTTPClient: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		MaxRetries: -1,
	}
}

func closeClient(c *server.Client) {
	if t, ok := c.HTTPClient.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}
