package main

import (
	"bytes"
	"context"
	"crypto/rsa"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"wisp/internal/gwroute"
	"wisp/internal/rsakey"
	"wisp/internal/serve"
	"wisp/internal/wire"
)

// spans holds one replayed request's self time in each layer.  The
// spans are recorded from outside, around calls into each layer's
// exported API; a layer's self time is its span minus its child spans.
type spans struct {
	json      time.Duration // client request encode, front-end response encode, client response decode
	decode    time.Duration // serve.DecodeEnvelope + Materialize
	hop       time.Duration // gwroute.Router.Submit minus its backend round trip
	backend   time.Duration // the router's child span
	wireEnc   time.Duration // wire.Encoder.Request + Response
	wireParse time.Duration // wire.Decoder.ParseRequest + wire.ParseResponse
	dispatch  time.Duration // serve.Gateway.Submit minus QueueUS and ServiceUS
	queue     time.Duration // QueueUS as the gateway reports it
	service   time.Duration // ServiceUS as the gateway reports it
}

// stopwatch charges elapsed time to spans; switched off, it never reads
// the clock, which is what the untraced replay pass measures against.
type stopwatch struct {
	on   bool
	last time.Time
}

func startWatch(on bool) stopwatch {
	if !on {
		return stopwatch{}
	}
	return stopwatch{on: true, last: time.Now()}
}

func (s *stopwatch) lap(d *time.Duration) {
	if s.on {
		now := time.Now()
		*d += now.Sub(s.last)
		s.last = now
	}
}

// tracer owns in-process instances of every layer a request crosses:
// a gateway configured like the daemon and the wire codec on both ends.
// A router over a stub backend that answers at once prices the JSON
// front end and the gwroute hop, which the workloads' wire path skips.
type tracer struct {
	gw         *serve.Gateway
	rt         *gwroute.Router
	cenc, senc wire.Encoder
	dec        wire.Decoder
	reqBuf     []byte
	respBuf    []byte
	seq        uint64
	sp         *spans // the traced request's spans; nil while untraced
	scratch    spans
	stubResp   *serve.Response
}

func newTracer() (*tracer, error) {
	gw, err := serve.NewGateway(serve.Config{RSABits: 1024})
	if err != nil {
		return nil, err
	}
	t := &tracer{gw: gw}
	t.rt, err = gwroute.NewRouter(gwroute.Config{
		Backends:   []string{"stub"},
		Dial:       func(string) (serve.Transport, error) { return stub{t: t}, nil },
		CoRouteRSA: true, // wispgw's default
	})
	if err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *tracer) close() {
	if t.rt != nil {
		t.rt.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = t.gw.Drain(ctx) // the replay is over; a slow drain only delays exit
}

func (t *tracer) spans() *spans {
	if t.sp != nil {
		return t.sp
	}
	return &t.scratch
}

// splitFrame separates a frame into its header and body.
func splitFrame(frame []byte) (hdr, body []byte, err error) {
	n, k := binary.Uvarint(frame)
	if k <= 0 || uint64(len(frame)-k) < n {
		return nil, nil, fmt.Errorf("malformed frame")
	}
	return frame[k : k+int(n)], frame[k+int(n):], nil
}

// wirePath carries req the way a wire client and wispd's wire listener
// do: encode, parse, Gateway.Submit, encode the answer, parse it.
func (t *tracer) wirePath(req *serve.Request) (*serve.Response, error) {
	sp := t.spans()
	sw := startWatch(t.sp != nil)
	t.seq++
	frame, err := t.cenc.Request(t.reqBuf[:0], t.seq, req)
	if err != nil {
		return nil, err
	}
	t.reqBuf = frame
	sw.lap(&sp.wireEnc)

	hdr, body, err := splitFrame(frame)
	if err != nil {
		return nil, err
	}
	var h wire.ReqHead
	if err := t.dec.ParseRequest(hdr, &h); err != nil {
		return nil, err
	}
	if h.PayloadLen != len(body) {
		return nil, fmt.Errorf("request frame carries %d payload bytes, header says %d", len(body), h.PayloadLen)
	}
	sreq := &serve.Request{ID: h.ID, Op: h.Op, Payload: body, Key: h.Key,
		RecordSize: h.RecordSize, DeadlineUS: h.DeadlineUS, Resume: h.Resume,
		Attempt: h.Attempt, Hedge: h.Hedge, ClientID: h.ClientID}
	sw.lap(&sp.wireParse)

	resp := t.gw.Submit(sreq)
	sw.lap(&sp.dispatch)
	if sw.on {
		q := time.Duration(resp.QueueUS) * time.Microsecond
		s := time.Duration(resp.ServiceUS) * time.Microsecond
		sp.dispatch -= q + s
		sp.queue += q
		sp.service += s
	}

	rframe, err := t.senc.Response(t.respBuf[:0], t.seq, resp, 0)
	if err != nil {
		return nil, err
	}
	t.respBuf = rframe
	sw.lap(&sp.wireEnc)

	rhdr, rbody, err := splitFrame(rframe)
	if err != nil {
		return nil, err
	}
	out := &serve.Response{}
	_, dl, rl, err := wire.ParseResponse(rhdr, out)
	if err != nil {
		return nil, err
	}
	if dl+rl != len(rbody) {
		return nil, fmt.Errorf("response frame carries %d body bytes, header says %d", len(rbody), dl+rl)
	}
	out.Digest = append([]byte(nil), rbody[:dl]...)
	out.Result = append([]byte(nil), rbody[dl:]...)
	sw.lap(&sp.wireParse)
	return out, nil
}

// jsonPath carries one request the way the HTTP front end of wispgw
// does: the client's JSON, the envelope-first decode, the router, the
// front end's JSON answer and the client's decode of it.  The router's
// backend is the stub, which hands back t.stubResp.
func (t *tracer) jsonPath(it *item) (*serve.Response, error) {
	sp := t.spans()
	sw := startWatch(t.sp != nil)
	body, err := json.Marshal(&it.req)
	if err != nil {
		return nil, err
	}
	sw.lap(&sp.json)

	env, err := serve.DecodeEnvelope(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req, err := env.Materialize()
	if err != nil {
		return nil, err
	}
	sw.lap(&sp.decode)

	resp := t.rt.Submit(req)
	serve.ReleaseRequest(req)
	sw.lap(&sp.hop)
	sp.hop -= sp.backend

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		return nil, err
	}
	out := &serve.Response{}
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		return nil, err
	}
	sw.lap(&sp.json)
	return out, nil
}

// stub is the router's backend: it hands back t.stubResp at once.
type stub struct{ t *tracer }

func (b stub) RoundTrip(*serve.Request) (*serve.Response, error) {
	sw := startWatch(b.t.sp != nil)
	resp := b.t.stubResp
	sw.lap(&b.t.spans().backend)
	return resp, nil
}

func (stub) Stats() (*serve.Stats, error) { return &serve.Stats{}, nil }
func (stub) Healthy() bool                { return true }
func (stub) Close() error                 { return nil }

// traceResult is the traced run's output.
type traceResult struct {
	metrics  metricList
	table    string
	mismatch error
}

// traceRun replays the workload's first open-loop requests in process,
// each twice — once traced, once untraced, alternating which goes first
// — then prices the primitives on the workload's payloads and reconciles
// the layer self times against the untraced end-to-end figure.
func traceRun(w *workload, in *inputs, outs []outcome, lat latency, key *rsakey.PrivateKey, std *rsa.PrivateKey) (*traceResult, error) {
	t, err := newTracer()
	if err != nil {
		return nil, err
	}
	defer t.close()
	res := &traceResult{}
	var checked tally
	replayOne := func(it *item) error {
		resp, err := t.wirePath(&it.req)
		if err != nil {
			return err
		}
		if resp.Status != serve.StatusOK {
			return fmt.Errorf("in-process %s: %s %s", it.req.Op, resp.Status, resp.Error)
		}
		checked.classify(it, resp, nil)
		return nil
	}
	for _, it := range in.warmup {
		if err := replayOne(it); err != nil {
			return nil, err
		}
	}

	items := in.open[:min(w.replay, len(in.open))]
	var traced []spans
	var tracedTotal, untracedTotal float64
	for i, it := range items {
		for pass := 0; pass < 2; pass++ {
			on := pass == i%2
			var sp spans
			t.sp = nil
			if on {
				t.sp = &sp
			}
			start := time.Now()
			err := replayOne(it)
			total := time.Since(start)
			t.sp = nil
			if err != nil {
				return nil, err
			}
			if !on {
				untracedTotal += total.Seconds()
				continue
			}
			tracedTotal += total.Seconds()
			// Price the front-end layers the wire path skips.
			var off spans
			t.stubResp = &serve.Response{Op: it.req.Op, Status: serve.StatusOK, Digest: it.want.digest[:]}
			t.sp = &off
			_, err = t.jsonPath(it)
			t.sp = nil
			if err != nil {
				return nil, err
			}
			sp.json, sp.decode, sp.hop = off.json, off.decode, off.hop
			traced = append(traced, sp)
		}
	}

	checked.verifyRSA(std)
	res.mismatch = checked.mismatch

	layer := func(f func(s *spans) time.Duration) (float64, float64) {
		xs := make([]float64, len(traced))
		for i := range traced {
			xs[i] = float64(f(&traced[i])) / 1e3
		}
		return median(sortedCopy(xs)), mean(xs)
	}
	m := &res.metrics
	type row struct {
		name, source string
		p50, mean    float64
		onPath       bool
	}
	var rows []row
	addTraced := func(metric, name string, f func(s *spans) time.Duration, onPath bool) {
		p50, mn := layer(f)
		m.add(metric, "us", p50)
		rows = append(rows, row{name, "traced", p50, mn, onPath})
	}
	var queue, service []float64
	for _, o := range outs {
		if o.ok {
			queue = append(queue, float64(o.queueUS))
			service = append(service, float64(o.service))
		}
	}
	rows = append(rows, row{"loadgen.lag", "untraced", lat.lagP50US, lat.lagMeanUS, true})
	addTraced("json.codec_us", "json.codec", func(s *spans) time.Duration { return s.json }, false)
	addTraced("serve.decode_us", "serve.decode", func(s *spans) time.Duration { return s.decode }, false)
	addTraced("gwroute.hop_us", "gwroute.hop", func(s *spans) time.Duration { return s.hop }, false)
	addTraced("wire.encode_us", "wire.encode", func(s *spans) time.Duration { return s.wireEnc }, true)
	addTraced("wire.parse_us", "wire.parse", func(s *spans) time.Duration { return s.wireParse }, true)
	addTraced("serve.dispatch_us", "serve.dispatch", func(s *spans) time.Duration { return s.dispatch }, true)
	rows = append(rows,
		row{"serve.queue", "untraced", median(sortedCopy(queue)), mean(queue), true},
		row{"serve.service", "untraced", median(sortedCopy(service)), mean(service), true})

	var sumP50, sumMean float64
	var onPath []float64
	var b strings.Builder
	fmt.Fprintf(&b, "reconcile %s: %d open-loop requests untraced, %d replayed in process\n", w.name, lat.n, len(items))
	fmt.Fprintf(&b, "  %-16s %-9s %12s %12s\n", "layer", "source", "p50_us", "mean_us")
	for _, r := range rows {
		mark := ""
		if r.onPath {
			sumP50 += r.p50
			sumMean += r.mean
			onPath = append(onPath, r.mean)
		} else {
			mark = "  (not on this path; priced only)"
		}
		fmt.Fprintf(&b, "  %-16s %-9s %12.1f %12.1f%s\n", r.name, r.source, r.p50, r.mean, mark)
	}
	residual := residualShare(lat.meanUS, onPath)
	overhead := ratio(tracedTotal-untracedTotal, untracedTotal)
	fmt.Fprintf(&b, "  %-16s %-9s %12.1f %12.1f\n", "sum of layers", "", sumP50, sumMean)
	fmt.Fprintf(&b, "  %-16s %-9s %12.1f %12.1f\n", "end-to-end", "untraced", lat.p50*1e3, lat.meanUS)
	fmt.Fprintf(&b, "  residual share %.4f (mean basis; medians do not add)\n", residual)
	fmt.Fprintf(&b, "  trace overhead share %.4f (in-process replay, traced vs untraced)\n", overhead)

	prims, err := measurePrims(in, key, std)
	if err != nil {
		return nil, err
	}
	*m = append(*m, prims.metrics...)
	if prims.mismatch != nil && res.mismatch == nil {
		res.mismatch = prims.mismatch
	}
	m.add("reconcile.residual_share", "ratio", residual)
	m.add("trace.overhead_share", "ratio", overhead)
	res.table = b.String()
	return res, nil
}
