package serve

import (
	"bytes"
	"fmt"

	"wisp/internal/aescipher"
	"wisp/internal/blockmode"
	"wisp/internal/bufpool"
	"wisp/internal/descipher"
	"wisp/internal/hashes"
	"wisp/internal/rsakey"
	"wisp/internal/ssl"
)

// shardEnv is one shard's private crypto state: a long-lived record
// session pair (so record ops skip the handshake, like resumed SSL
// sessions), symmetric schedules, an HMAC key, the shard's RSA precompute
// engine and its view of the gateway session cache.  Everything derives
// from the shard's seeded RNG stream, so runs are reproducible.
type shardEnv struct {
	sealer *ssl.Session // client side of the shard's resident session
	opener *ssl.Session // server side
	aes    *aescipher.Cipher
	aesIV  []byte
	des3   *descipher.TripleCipher
	desIV  []byte
	hmac   []byte

	// engine caches this shard's RSA precompute (reducer constants, CRT
	// exponentiators per key fingerprint).  Bound to the shard's mpz Ctx,
	// so only this shard's worker may use it.
	engine *rsakey.Engine
	// sessions is this shard's view of the gateway-wide session cache
	// (nil when resumption is disabled): the shared store with the full-
	// handshake premaster unwrap routed through this shard's engine.
	sessions *ssl.SessionCache
	// resumable is the most recent full-handshake client state; Resume
	// requests offer it for an abbreviated handshake.
	resumable *ssl.ClientSession
}

func newShardEnv(s *shard) (*shardEnv, error) {
	e := &shardEnv{engine: rsakey.DefaultEngine(s.ctx, precomputeKeys, 0)}
	if s.g.sessions != nil {
		e.sessions = s.g.sessions.WithDecrypt(func(key *rsakey.PrivateKey, wrapped []byte) ([]byte, error) {
			return e.engine.PadDecrypt(key, wrapped)
		})
	}
	sealer, opener, cs, err := ssl.HandshakePair(s.rng, s.g.key, e.sessions)
	if err != nil {
		return nil, fmt.Errorf("establishing resident session: %w", err)
	}
	e.sealer, e.opener, e.resumable = sealer, opener, cs
	aesKey := make([]byte, 16)
	s.rng.Read(aesKey)
	if e.aes, err = aescipher.NewCipher(aesKey); err != nil {
		return nil, err
	}
	e.aesIV = make([]byte, aescipher.BlockSize)
	s.rng.Read(e.aesIV)
	desKey := make([]byte, 24)
	s.rng.Read(desKey)
	if e.des3, err = descipher.NewTripleCipher(desKey); err != nil {
		return nil, err
	}
	e.desIV = make([]byte, descipher.BlockSize)
	s.rng.Read(e.desIV)
	e.hmac = make([]byte, 16)
	s.rng.Read(e.hmac)
	return e, nil
}

// sessionPair establishes one client/server session pair for this shard,
// returning the ID of the session the pair settled on (nil when the
// cache is disabled).  Two resumption sources, in precedence order:
//
//   - A non-empty key is a client-offered session ID (from a previous
//     response's Result).  The cache reconstructs that session's state —
//     consulting ring peers via the replication pull hook when the local
//     shard never saw it — so a client can resume against any backend.
//     An ID nobody knows falls back to a full handshake.
//   - With no key, the shard offers its own most recent full-handshake
//     state, the legacy self-resume path.
//
// The fall-back ladder keeps the serving path self-healing: a declined
// or failed resumption retries as a full handshake, and every successful
// full handshake refreshes the shard's resumable state.
func (s *shard) sessionPair(resume bool, key []byte) (cli, srv *ssl.Session, sid []byte, err error) {
	if resume && s.env.sessions != nil {
		offered := s.env.resumable
		external := false
		if len(key) > 0 {
			offered, external = nil, true
			if ext, ok := s.env.sessions.ClientSessionFor(key); ok {
				offered = ext
			}
		}
		if offered != nil {
			cli, srv, cs, rerr := ssl.ResumePair(s.rng, s.g.key, s.env.sessions, offered)
			if rerr == nil {
				if !external {
					s.env.resumable = cs
				}
				return cli, srv, cs.ID, nil
			}
			if !external {
				// Drop the poisoned state and fall through to a full handshake.
				s.env.resumable = nil
			}
		}
	}
	cli, srv, cs, err := ssl.HandshakePair(s.rng, s.g.key, s.env.sessions)
	if err != nil {
		return nil, nil, nil, err
	}
	if cs != nil {
		s.env.resumable = cs
		sid = cs.ID
	}
	return cli, srv, sid, nil
}

// run executes one admitted request on this shard, filling resp's
// payload-bearing fields.  Status and timing are the caller's job.
// Payload-bearing response fields (Digest, Result) are written with
// append(...[:0], ...) so a caller that reuses Response objects keeps the
// steady-state record path allocation-free.
func (s *shard) run(req *Request, resp *Response) error {
	digest := hashes.MD5Sum(req.Payload)
	resp.Digest = append(resp.Digest[:0], digest[:]...)

	switch req.Op {
	case OpSSL:
		return s.runSSL(req, resp, false)
	case OpHandshake:
		return s.runSSL(req, resp, true)

	case OpRecord:
		rec, err := s.env.sealer.Seal(req.Payload)
		if err != nil {
			return err
		}
		got, err := s.env.opener.Open(rec)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, req.Payload) {
			return fmt.Errorf("record round trip corrupted %d bytes", len(req.Payload))
		}
		resp.Records = 1
		resp.EstBaseCycles, resp.EstOptCycles = s.g.estRecord(len(req.Payload))

	case OpRSADecrypt:
		wrapped, err := s.env.engine.PadEncrypt(s.rng, &s.g.key.PublicKey, resp.Digest)
		if err != nil {
			return err
		}
		got, err := s.env.engine.PadDecrypt(s.g.key, wrapped)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, resp.Digest) {
			return fmt.Errorf("rsa round trip corrupted digest")
		}
		resp.Result = wrapped
		resp.EstBaseCycles = DefaultBaseCosts.RSADecrypt
		resp.EstOptCycles = DefaultOptCosts.RSADecrypt

	case OpRSAEncrypt:
		wrapped, err := s.env.engine.PadEncrypt(s.rng, &s.g.key.PublicKey, resp.Digest)
		if err != nil {
			return err
		}
		resp.Result = wrapped
		resp.EstBaseCycles = DefaultBaseCosts.RSAPublic
		resp.EstOptCycles = DefaultOptCosts.RSAPublic

	case OpAES:
		return s.runCBC(req, resp, aescipher.BlockSize, func(key []byte) (blockmode.Block, []byte, error) {
			if key == nil {
				return s.env.aes, s.env.aesIV, nil
			}
			// Per-request keys reuse cached key schedules: the expansion
			// cost is paid once per distinct key, not once per request.
			c, err := aescipher.CachedCipher(key)
			return c, s.env.aesIV, err
		})

	case Op3DES:
		err := s.runCBC(req, resp, descipher.BlockSize, func(key []byte) (blockmode.Block, []byte, error) {
			if key == nil {
				return s.env.des3, s.env.desIV, nil
			}
			c, err := descipher.NewTripleCipher(key)
			return c, s.env.desIV, err
		})
		if err != nil {
			return err
		}
		resp.EstBaseCycles = DefaultBaseCosts.CipherPerByte * float64(len(req.Payload))
		resp.EstOptCycles = DefaultOptCosts.CipherPerByte * float64(len(req.Payload))

	case OpMD5:
		resp.Result = append(resp.Result[:0], resp.Digest...)
	case OpSHA1:
		sum := hashes.SHA1Sum(req.Payload)
		resp.Result = append(resp.Result[:0], sum[:]...)
	case OpHMACMD5:
		resp.Result = hashes.HMACMD5(s.hmacKey(req), req.Payload)
	case OpHMACSHA1:
		resp.Result = hashes.HMACSHA1(s.hmacKey(req), req.Payload)

	default:
		return fmt.Errorf("serve: op %q not implemented", req.Op)
	}
	return nil
}

func (s *shard) hmacKey(req *Request) []byte {
	if len(req.Key) > 0 {
		return req.Key
	}
	return s.env.hmac
}

// runSSL serves a full transaction: a handshake — abbreviated when the
// request asks to resume and the session cache cooperates, otherwise a
// fresh one with one private-key op on the gateway key — then, unless
// handshakeOnly, the payload pumped through the new session in RecordSize
// chunks and self-checked.
func (s *shard) runSSL(req *Request, resp *Response, handshakeOnly bool) error {
	cli, srv, sid, err := s.sessionPair(req.Resume, req.Key)
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	// Per-transaction sessions die with the transaction; Close recycles
	// their record buffers through the pool for the next handshake.
	defer cli.Close()
	defer srv.Close()
	resp.Resumed = cli.Resumed && srv.Resumed
	// Echo the session ID (fresh or resumed) so the client can offer it
	// back — possibly to a different backend — on its next transaction.
	resp.Result = append(resp.Result[:0], sid...)
	if handshakeOnly {
		if resp.Resumed {
			resp.EstBaseCycles, resp.EstOptCycles = s.g.estHandshakeResumed()
		} else {
			resp.EstBaseCycles, resp.EstOptCycles = s.g.estHandshake()
		}
		return nil
	}
	rs := req.RecordSize
	if rs <= 0 {
		rs = defaultRecordSize
	}
	recovered := bufpool.Get(len(req.Payload))[:0]
	defer func() { bufpool.Put(recovered) }()
	for off := 0; off < len(req.Payload); off += rs {
		end := min(off+rs, len(req.Payload))
		rec, err := cli.Seal(req.Payload[off:end])
		if err != nil {
			return fmt.Errorf("record %d seal: %w", resp.Records, err)
		}
		got, err := srv.Open(rec)
		if err != nil {
			return fmt.Errorf("record %d open: %w", resp.Records, err)
		}
		recovered = append(recovered, got...)
		resp.Records++
	}
	if !bytes.Equal(recovered, req.Payload) {
		return fmt.Errorf("transaction corrupted: %d bytes in, %d recovered", len(req.Payload), len(recovered))
	}
	if resp.Resumed {
		resp.EstBaseCycles, resp.EstOptCycles = s.g.estTransactionResumed(len(req.Payload))
	} else {
		resp.EstBaseCycles, resp.EstOptCycles = s.g.estTransaction(len(req.Payload))
	}
	return nil
}

// runCBC is the shared CBC round trip for AES/3DES: pad, encrypt, decrypt,
// unpad, compare.  Both working buffers come from the pool; padding and
// encryption share one buffer since CBCEncrypt works in place.
func (s *shard) runCBC(req *Request, resp *Response, blockSize int,
	cipher func(key []byte) (blockmode.Block, []byte, error)) error {
	var key []byte
	if len(req.Key) > 0 {
		key = req.Key
	}
	blk, iv, err := cipher(key)
	if err != nil {
		return err
	}
	pad := blockSize - len(req.Payload)%blockSize
	ct := bufpool.Get(len(req.Payload) + pad)
	defer bufpool.Put(ct)
	copy(ct, req.Payload)
	for i := len(req.Payload); i < len(ct); i++ {
		ct[i] = byte(pad)
	}
	if err := blockmode.CBCEncrypt(blk, iv, ct, ct); err != nil {
		return err
	}
	pt := bufpool.Get(len(ct))
	defer bufpool.Put(pt)
	if err := blockmode.CBCDecrypt(blk, iv, pt, ct); err != nil {
		return err
	}
	got, err := blockmode.Unpad(pt, blockSize)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, req.Payload) {
		return fmt.Errorf("cbc round trip corrupted %d bytes", len(req.Payload))
	}
	return nil
}
