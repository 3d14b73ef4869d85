package obs

import (
	"io"
	"net"
	"net/http"
	"sync/atomic"
)

// View is what the server serves: the run record, rendered as JSON at
// /snapshot and as Prometheus text at /metrics.
type View interface {
	WriteJSON(io.Writer) error
	WritePrometheus(io.Writer) error
}

// Server is the live observability endpoint: a plain HTTP listener serving
// the most recently published View. Publishing is a single atomic pointer
// store, so the simulation loop never blocks on a scraper; handlers read
// whichever view was current when the request arrived.
type Server struct {
	ln  net.Listener
	srv *http.Server
	cur atomic.Pointer[View]
}

// NewServer starts serving initial on addr (e.g. "localhost:9464", or ":0"
// to let the kernel pick a port — see Addr) until the first Publish. The
// listener is live on return.
func NewServer(addr string, initial View) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln}
	s.Publish(initial)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = (*s.cur.Load()).WritePrometheus(w)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = (*s.cur.Load()).WriteJSON(w)
	})
	s.srv = &http.Server{Handler: mux}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr is the listener's resolved address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Publish makes v the view served to subsequent requests. The caller must
// not mutate v afterwards.
func (s *Server) Publish(v View) { s.cur.Store(&v) }

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error { return s.srv.Close() }
