package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler is the serving surface the front ends drive: the HTTP Server
// here and the binary wire listener (internal/wire).  *Gateway implements
// it for a single node; internal/gwroute's Router implements it for a
// routing tier, so one front end serves both.
type Handler interface {
	// Preadmit prices a request from its envelope (op, client identity,
	// payload size) before the payload is read; a non-nil response is the
	// shed to answer with, and the payload is discarded.
	Preadmit(op Op, clientKey string, payloadBytes int) (int64, *Response)
	// CancelPreadmit backs out a successful Preadmit whose payload failed
	// to materialize.
	CancelPreadmit(clientKey string)
	// Submit serves one request, blocking until the response is ready.
	Submit(req *Request) *Response
	// BacklogUS is the node's total backlog-cost estimate, piggybacked on
	// every wire response and pong for routing tiers.
	BacklogUS() int64
	// StatsJSON renders the stats snapshot (wire stats frames, /stats).
	StatsJSON() ([]byte, error)
	// StatsText renders the stats snapshot as a text metrics dump
	// (/stats?format=text).
	StatsText() string
	// NoteRejectedDecode counts one malformed request refused at decode.
	NoteRejectedDecode()
	// Draining reports whether Drain has begun (/healthz answers 503).
	Draining() bool
	// Drain stops admission on shutdown: new requests shed with reason
	// "draining".  It returns once the handler's queued work is done or
	// ctx expires.
	Drain(ctx context.Context) error
}

// Server exposes a Handler over HTTP:
//
//	POST /v1/offload  — one Request in, one Response out (JSON)
//	GET  /stats       — metrics snapshot (JSON; ?format=text for a dump)
//	GET  /healthz     — "ok" while serving, 503 "draining" during drain
type Server struct {
	h    Handler
	mux  *http.ServeMux
	http *http.Server
	ln   net.Listener
}

// NewServer wraps a handler with the HTTP front end.
func NewServer(h Handler) *Server {
	s := &Server{h: h}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/offload", s.handleOffload)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux = mux
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	return s
}

// SetReadTimeout bounds how long a connection may take to deliver one
// full request (headers + body).  It is the slow-loris defense: a client
// dribbling its body byte-by-byte is disconnected at the deadline instead
// of holding a handler goroutine for the duration of the attack.  0 (the
// default) disables the bound.  Call before Serve.
//
// net/http reuses ReadTimeout as the keep-alive idle timeout when
// IdleTimeout is unset, which would make a tight slow-loris bound reset
// perfectly healthy pooled connections between legit requests.  Idle
// keep-alive holds no half-read request state, so it keeps a separate,
// generous bound.
func (s *Server) SetReadTimeout(d time.Duration) {
	s.http.ReadTimeout = d
	if s.http.IdleTimeout == 0 || s.http.IdleTimeout < d {
		s.http.IdleTimeout = 60 * time.Second
	}
}

// EnablePprof mounts net/http/pprof under /debug/pprof/ on the server's
// own mux (the default-mux registration pprof does on import is useless
// here).  Call before Serve.  Profiles are how alloc regressions get
// diagnosed once the benchcmp gate catches them: heap shows what still
// allocates per record, allocs shows the cumulative call graph.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// Listen binds addr (host:port; port 0 picks a free one) and returns the
// bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	return ln.Addr(), nil
}

// Serve runs the HTTP loop on the listener from Listen; it blocks until
// Shutdown and returns nil on a clean close.
func (s *Server) Serve() error {
	if s.ln == nil {
		return fmt.Errorf("serve: Serve before Listen")
	}
	if err := s.http.Serve(s.ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// Shutdown drains the handler (in-flight and queued requests finish,
// new ones are shed) and then closes the HTTP server.
func (s *Server) Shutdown(ctx context.Context) error {
	drainErr := s.h.Drain(ctx)
	httpErr := s.http.Shutdown(ctx)
	if drainErr != nil {
		return drainErr
	}
	return httpErr
}

func (s *Server) handleOffload(w http.ResponseWriter, r *http.Request) {
	// The hardened decode enforces payload/ClientID size bounds before any
	// buffer allocation and hands back a pooled payload; a rejected body
	// costs the gateway only the envelope parse and still answers with a
	// protocol-shaped error response rather than a bare 400.  QoS admission
	// runs between the two decode stages: a client the bucket refuses is
	// answered from the envelope, before its payload is materialized.
	env, err := DecodeEnvelope(http.MaxBytesReader(w, r.Body, MaxWireBytes))
	if err != nil {
		s.h.NoteRejectedDecode()
		writeJSON(w, http.StatusBadRequest, decodeErrorResponse(err))
		return
	}
	est, shed := s.h.Preadmit(env.Op(), env.ClientKey(), env.PayloadBytes())
	if shed != nil {
		writeJSON(w, http.StatusServiceUnavailable, shed)
		return
	}
	req, err := env.Materialize()
	if err != nil {
		if est > 0 {
			s.h.CancelPreadmit(env.ClientKey())
		}
		s.h.NoteRejectedDecode()
		writeJSON(w, http.StatusBadRequest, decodeErrorResponse(err))
		return
	}
	req.SetPreadmitted(est)
	resp := s.h.Submit(req)
	ReleaseRequest(req)
	code := http.StatusOK
	switch resp.Status {
	case StatusShed:
		code = http.StatusServiceUnavailable
	case StatusExpired:
		code = http.StatusGatewayTimeout
	case StatusError:
		code = http.StatusUnprocessableEntity
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, s.h.StatsText())
		return
	}
	body, err := s.h.StatsJSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(body, '\n'))
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.h.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
