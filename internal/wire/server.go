package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"wisp/internal/bufpool"
	"wisp/internal/serve"
)

// ReplicaHandler is the optional session-replication surface a
// serve.Handler may additionally implement (the gateway does; a routing
// tier does not).  The server type-asserts for it when a Replicate or Fetch frame
// arrives; a handler without it degrades gracefully — pushes are
// discarded and fetches answer not-found, both indistinguishable from a
// replica-cache miss.
type ReplicaHandler interface {
	// ReplicaStore installs one pushed session secret in the local cache.
	ReplicaStore(id, master []byte)
	// ReplicaLookup returns the master secret for a session ID without
	// triggering any further remote fetch (peers must not recurse).
	ReplicaLookup(id []byte) ([]byte, bool)
}

// ServerConfig tunes a wire listener.  The zero value selects defaults.
type ServerConfig struct {
	// MaxConnInflight bounds concurrently-submitted requests per
	// connection; further frames wait on the socket (TCP backpressure)
	// until a slot frees.  Default 256.
	MaxConnInflight int
	// ReadTimeout bounds how long one frame may take to arrive once its
	// first byte has — the slow-loris defense, mirroring the HTTP front
	// end's SetReadTimeout.  0 disables the bound.
	ReadTimeout time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxConnInflight <= 0 {
		c.MaxConnInflight = 256
	}
	return c
}

// Server accepts wire-protocol connections and drives a serve.Handler.
type Server struct {
	h   serve.Handler
	cfg ServerConfig
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// NewServer wraps a handler with the binary-protocol front end.
func NewServer(h serve.Handler, cfg ServerConfig) *Server {
	return &Server{h: h, cfg: cfg.withDefaults(), conns: make(map[net.Conn]struct{})}
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

// Serve runs the accept loop on the listener from Listen; it blocks until
// Close and returns nil on a clean shutdown.
func (s *Server) Serve() error {
	if s.ln == nil {
		return fmt.Errorf("wire: Serve before Listen")
	}
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Close stops accepting, closes every live connection and waits for their
// handlers to return.  Callers drain the handler first (e.g.
// Gateway.Drain) so in-flight requests answer before the sockets drop.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// connWriter serializes frame writes on one connection and recycles the
// per-response encode buffer, keeping the response path allocation-free
// in steady state.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
}

// respEncoders pools encoder+buffer pairs across response goroutines.
var respEncoders = sync.Pool{New: func() any { return &respEncoder{} }}

type respEncoder struct {
	enc Encoder
	buf []byte
}

func (w *connWriter) write(frame []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	_, err := w.conn.Write(frame)
	return err
}

func (w *connWriter) writeResponse(seq uint64, resp *serve.Response, loadUS int64) error {
	re := respEncoders.Get().(*respEncoder)
	frame, err := re.enc.Response(re.buf[:0], seq, resp, loadUS)
	if err == nil {
		re.buf = frame
		err = w.write(frame)
	}
	respEncoders.Put(re)
	return err
}

// reqPool recycles the serve.Request shells submitted per frame; their
// Key capacity persists across reuse so explicit-key requests stop
// allocating after warmup.
var reqPool = sync.Pool{New: func() any { return new(serve.Request) }}

// serveConn runs one connection: preamble check, then a frame loop with
// envelope-first admission.  Request frames are served on goroutines
// (bounded by MaxConnInflight) so responses multiplex out of order.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	var pre [4]byte
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	if _, err := io.ReadFull(conn, pre[:]); err != nil {
		return
	}
	if pre[0] != Magic0 || pre[1] != Magic1 || pre[2] != Magic2 || pre[3] != Version {
		s.h.NoteRejectedDecode()
		return
	}
	conn.SetReadDeadline(time.Time{})

	br := bufio.NewReaderSize(conn, 64<<10)
	w := &connWriter{conn: conn}
	var dec Decoder
	var head ReqHead
	sem := make(chan struct{}, s.cfg.MaxConnInflight)
	var inflight sync.WaitGroup
	defer inflight.Wait()

	for {
		hdrLen, err := binary.ReadUvarint(br)
		if err != nil {
			return // idle close or peer gone
		}
		if hdrLen == 0 || hdrLen > MaxHeader {
			s.h.NoteRejectedDecode()
			return
		}
		// The frame has started: bound how long the rest may dribble in.
		if s.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		hdr := bufpool.Get(int(hdrLen))
		if _, err := io.ReadFull(br, hdr); err != nil {
			bufpool.Put(hdr)
			return
		}
		switch hdr[0] {
		case FrameRequest:
			if err := dec.ParseRequest(hdr, &head); err != nil {
				bufpool.Put(hdr)
				s.h.NoteRejectedDecode()
				return // header garbage: the stream framing is untrustworthy
			}
			ok := s.handleRequest(br, conn, w, &head, sem, &inflight)
			bufpool.Put(hdr)
			if !ok {
				return
			}
		case FrameStats:
			seq, err := parseSeq(hdr)
			bufpool.Put(hdr)
			if err != nil {
				s.h.NoteRejectedDecode()
				return
			}
			doc, err := s.h.StatsJSON()
			if err != nil {
				doc = []byte(fmt.Sprintf(`{"error":%q}`, err))
			}
			var enc Encoder
			frame, err := enc.StatsResp(nil, seq, doc)
			if err != nil || w.write(frame) != nil {
				return
			}
		case FramePing:
			seq, err := parseSeq(hdr)
			bufpool.Put(hdr)
			if err != nil {
				s.h.NoteRejectedDecode()
				return
			}
			var enc Encoder
			if w.write(enc.Pong(nil, seq, s.h.BacklogUS())) != nil {
				return
			}
		case FrameReplicate:
			lens, bodyLen, err := parseReplicate(hdr, nil)
			bufpool.Put(hdr)
			if err != nil {
				s.h.NoteRejectedDecode()
				return
			}
			body := bufpool.Get(bodyLen)
			if _, err := io.ReadFull(br, body); err != nil {
				bufpool.Put(body)
				return
			}
			if rh, ok := s.h.(ReplicaHandler); ok {
				off := 0
				for _, l := range lens {
					rh.ReplicaStore(body[off:off+l[0]], body[off+l[0]:off+l[0]+l[1]])
					off += l[0] + l[1]
				}
			}
			bufpool.Put(body)
		case FrameFetch:
			seq, id, err := parseFetch(hdr)
			if err != nil {
				bufpool.Put(hdr)
				s.h.NoteRejectedDecode()
				return
			}
			var master []byte
			var found bool
			if rh, ok := s.h.(ReplicaHandler); ok {
				master, found = rh.ReplicaLookup(id)
			}
			bufpool.Put(hdr)
			var enc Encoder
			frame, err := enc.FetchResp(nil, seq, master, found)
			if err != nil || w.write(frame) != nil {
				return
			}
		default:
			bufpool.Put(hdr)
			s.h.NoteRejectedDecode()
			return
		}
		if s.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Time{})
		}
	}
}

// handleRequest applies envelope-first admission to one parsed request
// header and either discards the payload (shed) or materializes it and
// submits on a bounded goroutine.  Returns false when the connection is
// no longer usable.
func (s *Server) handleRequest(br *bufio.Reader, conn net.Conn, w *connWriter, head *ReqHead, sem chan struct{}, inflight *sync.WaitGroup) bool {
	est, shed := s.h.Preadmit(head.Op, head.ClientKey(), head.PayloadLen)
	if shed != nil {
		// Refused at the envelope: the payload is never buffered — it is
		// drained from the socket and dropped, so a throttled client's
		// maximum-size payloads cost this node nothing but the read.
		if _, err := br.Discard(head.PayloadLen); err != nil {
			return false
		}
		shed.ID = head.ID
		return w.writeResponse(head.Seq, shed, s.h.BacklogUS()) == nil
	}

	req := reqPool.Get().(*serve.Request)
	keyBuf := req.Key[:0]
	*req = serve.Request{
		ID: head.ID, Op: head.Op,
		RecordSize: head.RecordSize, DeadlineUS: head.DeadlineUS,
		Resume: head.Resume, Attempt: head.Attempt, Hedge: head.Hedge,
		ClientID: head.ClientID,
	}
	if len(head.Key) > 0 {
		req.Key = append(keyBuf, head.Key...)
	} else {
		req.Key = keyBuf
	}
	if head.PayloadLen > 0 {
		buf := bufpool.Get(head.PayloadLen)
		if _, err := io.ReadFull(br, buf); err != nil {
			bufpool.Put(buf)
			reqPool.Put(req)
			if est > 0 {
				s.h.CancelPreadmit(head.ClientKey())
			}
			return false
		}
		req.Payload = buf
	}
	req.SetPreadmitted(est)

	seq := head.Seq
	sem <- struct{}{}
	inflight.Add(1)
	go func() {
		defer func() {
			<-sem
			inflight.Done()
		}()
		resp := s.h.Submit(req)
		serve.ReleaseRequest(req)
		req.Key = req.Key[:0]
		reqPool.Put(req)
		if w.writeResponse(seq, resp, s.h.BacklogUS()) != nil {
			conn.Close() // unblocks the read loop
		}
	}()
	return true
}
