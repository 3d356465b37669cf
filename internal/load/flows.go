package load

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/units"
	"repro/internal/wire"
)

// flow is one client→server traffic flow's state. All fields are mutated
// from simulation procs, which run single-threaded in the engine.
type flow struct {
	id     int
	udp    bool
	client *host
	server *host
	rng    *rand.Rand
	port   uint16     // data sender's local port once known (= arbiter/ledger flow id)
	start  units.Time // when the flow began sending (after start jitter)

	lat        *obs.Histogram
	bytes      units.Size // verified payload bytes delivered (receiver side, in-window)
	sentBytes  units.Size
	reqs       int64 // completed request/response exchanges
	dgramsSent int64
	dgramsRcvd int64
	streamed   units.Size // total bulk stream bytes delivered (incl. past deadline)
	errs       int
	firstErr   string
}

func (f *flow) fail(format string, args ...any) {
	f.errs++
	if f.firstErr == "" {
		f.firstErr = fmt.Sprintf("flow %d: %s", f.id, fmt.Sprintf(format, args...))
	}
}

// --- Framing ---

// Every exchange starts with a fixed header carrying the flow identity,
// sequence number, sizes, and (for latency) the send time in virtual
// nanoseconds. Request and response payloads are position-dependent
// pattern bytes keyed by (flow, seq), so both ends verify byte-exact
// delivery.
const (
	hdrLen   = 32 * units.Byte
	hdrMagic = 0x4c4f4144 // "LOAD"
	bulkMark = 0xffffffff // reqLen value announcing a bulk stream
)

type msgHdr struct {
	flow     int
	seq      int
	reqLen   units.Size
	respLen  units.Size
	sendTime units.Time
}

func putHdr(b []byte, h msgHdr) {
	binary.BigEndian.PutUint32(b[0:], hdrMagic)
	binary.BigEndian.PutUint32(b[4:], uint32(h.flow))
	binary.BigEndian.PutUint32(b[8:], uint32(h.seq))
	binary.BigEndian.PutUint32(b[12:], uint32(h.reqLen))
	binary.BigEndian.PutUint32(b[16:], uint32(h.respLen))
	binary.BigEndian.PutUint32(b[20:], 0)
	binary.BigEndian.PutUint64(b[24:], uint64(h.sendTime))
}

func parseHdr(b []byte) (msgHdr, error) {
	if binary.BigEndian.Uint32(b[0:]) != hdrMagic {
		return msgHdr{}, fmt.Errorf("load: bad frame magic %#x", binary.BigEndian.Uint32(b[0:]))
	}
	return msgHdr{
		flow:     int(binary.BigEndian.Uint32(b[4:])),
		seq:      int(binary.BigEndian.Uint32(b[8:])),
		reqLen:   units.Size(binary.BigEndian.Uint32(b[12:])),
		respLen:  units.Size(binary.BigEndian.Uint32(b[16:])),
		sendTime: units.Time(binary.BigEndian.Uint64(b[24:])),
	}, nil
}

// patByte is the request/response payload pattern.
func patByte(flow, seq, off int) byte { return byte(flow*131 + seq*29 + off*3 + 7) }

// streamByte is the bulk-stream pattern at a stream offset.
func streamByte(flow int, off units.Size) byte { return byte(flow*131 + int(off)*3 + 7) }

// Both patterns step by 3 per byte, so every payload is a rotation of one
// 256-byte ramp, and since 3·171 ≡ 1 (mod 256) the rotation that starts
// with byte v begins at index 171·v. ramp holds two periods so that any
// rotation is one contiguous slice.
var ramp = func() (r [512]byte) {
	for i := range r {
		r[i] = byte(3 * i)
	}
	return
}()

func rampFrom(first byte) []byte {
	start := int(first * 171)
	return ramp[start : start+256]
}

// fillRamp writes b[i] = first + 3·i.
func fillRamp(b []byte, first byte) {
	n := copy(b, rampFrom(first))
	for n < len(b) { // n is a whole number of periods here
		n += copy(b[n:], b[:n])
	}
}

// checkRamp returns the first index at which b[i] != first + 3·i, or -1.
func checkRamp(b []byte, first byte) int {
	pat := rampFrom(first)
	for off := 0; off < len(b); off += len(pat) {
		chunk := b[off:min(off+len(pat), len(b))]
		if bytes.Equal(chunk, pat[:len(chunk)]) {
			continue
		}
		for i, v := range chunk {
			if v != pat[i] {
				return off + i
			}
		}
	}
	return -1
}

func fillPat(b []byte, flow, seq, off int) { fillRamp(b, patByte(flow, seq, off)) }

func fillStream(b []byte, flow int, off units.Size) { fillRamp(b, streamByte(flow, off)) }

// --- TCP helpers ---

// readFull reads exactly n bytes through buf (which may be smaller than
// n), invoking sink for each chunk with its logical offset. It returns an
// error on EOF or connection failure before n bytes arrive.
func readFull(p *sim.Proc, sock *socket.Socket, buf mem.Buf, n units.Size,
	sink func(b []byte, off units.Size) error) error {
	off := units.Size(0)
	for off < n {
		chunk := min(n-off, buf.Len)
		rd, err := sock.Read(p, buf.Slice(0, chunk))
		if rd > 0 {
			if sink != nil {
				if serr := sink(buf.Slice(0, rd).Bytes(), off); serr != nil {
					return serr
				}
			}
			off += rd
		}
		if err != nil && off < n {
			return fmt.Errorf("short read %d/%d: %w", off, n, err)
		}
	}
	return nil
}

func checkPat(f *flow, seq int) func(b []byte, off units.Size) error {
	return func(b []byte, off units.Size) error {
		if i := checkRamp(b, patByte(f.id, seq, int(off))); i >= 0 {
			return fmt.Errorf("payload corrupt at seq %d off %d: got %#x want %#x",
				seq, int(off)+i, b[i], patByte(f.id, seq, int(off)+i))
		}
		return nil
	}
}

func serverAddr(f *flow) wire.Addr { return f.server.h.Cfg.Addr }

func (r *runner) setWindow(sock *socket.Socket) {
	if r.s.Window > 0 {
		sock.Conn.SndLimit = r.s.Window
		sock.Conn.RcvLimit = r.s.Window
	}
}

// --- TCP client ---

func (r *runner) startTCPClient(f *flow) {
	r.tb.Eng.Go(fmt.Sprintf("flow%d-client", f.id), func(p *sim.Proc) {
		defer r.clientDone()
		if d := r.startDelay(f); d > 0 {
			p.Sleep(d)
		}
		f.start = p.Now()
		sock, err := f.client.h.Dial(p, f.client.task, serverAddr(f), tcpPort)
		if err != nil {
			f.fail("dial: %v", err)
			return
		}
		r.setWindow(sock)
		f.port = sock.Conn.LocalPort()
		if r.s.Bulk {
			r.runBulkClient(p, f, sock)
		} else {
			r.runRRClient(p, f, sock)
		}
	})
}

// runRRClient issues the request/response loop.
func (r *runner) runRRClient(p *sim.Proc, f *flow, sock *socket.Socket) {
	s := r.s
	maxReq, maxResp := s.maxSizes()
	wbuf := f.client.task.Space.Alloc(hdrLen+maxReq, 8)
	rbuf := f.client.task.Space.Alloc(max(maxResp, 16*units.KB), 8)
	next := p.Now()
	for i := 0; i < s.Requests; i++ {
		issued := p.Now()
		if s.OpenLoop {
			if i > 0 {
				next += units.Time(f.rng.ExpFloat64() / s.Rate * float64(units.Second))
			}
			if now := p.Now(); next > now {
				p.Sleep(next - now)
			}
			// Open loop: latency is measured from the scheduled arrival,
			// so a backed-up flow accrues queueing delay.
			issued = next
		} else if i > 0 && s.Think > 0 {
			p.Sleep(units.Time(f.rng.ExpFloat64() * float64(s.Think)))
			issued = p.Now()
		}
		cls := pick(s.Mix, f.rng)
		putHdr(wbuf.Bytes(), msgHdr{flow: f.id, seq: i, reqLen: cls.Req, respLen: cls.Resp, sendTime: issued})
		fillPat(wbuf.Slice(hdrLen, cls.Req).Bytes(), f.id, i, 0)
		if err := sock.WriteAll(p, wbuf.Slice(0, hdrLen+cls.Req)); err != nil {
			f.fail("write req %d: %v", i, err)
			break
		}
		f.sentBytes += cls.Req
		if cls.Resp > 0 {
			if err := readFull(p, sock, rbuf, cls.Resp, checkPat(f, i)); err != nil {
				f.fail("resp %d: %v", i, err)
				break
			}
			f.bytes += cls.Resp
		}
		f.reqs++
		lat := p.Now() - issued
		f.lat.Observe(lat)
		r.aggLat.Observe(lat)
		r.delivered('r', f.id, i, p.Now())
	}
	sock.Close(p)
}

// runBulkClient streams pattern bytes until the scenario deadline.
func (r *runner) runBulkClient(p *sim.Proc, f *flow, sock *socket.Socket) {
	s := r.s
	hbuf := f.client.task.Space.Alloc(hdrLen, 8)
	wbuf := f.client.task.Space.Alloc(s.BulkWrite, 8)
	putHdr(hbuf.Bytes(), msgHdr{flow: f.id, seq: 0, reqLen: bulkMark, sendTime: p.Now()})
	if err := sock.WriteAll(p, hbuf); err != nil {
		f.fail("bulk hdr: %v", err)
		return
	}
	off := units.Size(0)
	for p.Now() < s.Duration {
		fillStream(wbuf.Bytes(), f.id, off)
		if err := sock.WriteAll(p, wbuf); err != nil {
			f.fail("bulk write at %d: %v", off, err)
			break
		}
		off += s.BulkWrite
		f.sentBytes += s.BulkWrite
	}
	sock.Close(p)
}

// --- TCP server ---

func (r *runner) startAcceptLoop(sv *host) {
	r.tb.Eng.Go(sv.h.Name+"-accept", func(p *sim.Proc) {
		for {
			sock := sv.h.Accept(p, sv.task, sv.lis)
			if sock == nil {
				return
			}
			r.setWindow(sock)
			r.tb.Eng.Go(fmt.Sprintf("%s-conn%d", sv.h.Name, sock.Conn.RemotePort()),
				func(cp *sim.Proc) { r.serveTCP(cp, sv, sock) })
		}
	})
}

// serveTCP handles one accepted connection: a sequence of framed
// requests, or a bulk stream.
func (r *runner) serveTCP(p *sim.Proc, sv *host, sock *socket.Socket) {
	maxReq, maxResp := r.s.maxSizes()
	hbuf := sv.task.Space.Alloc(hdrLen, 8)
	rbuf := sv.task.Space.Alloc(max(maxReq, 64*units.KB), 8)
	wbuf := sv.task.Space.Alloc(max(maxResp, hdrLen), 8)
	for {
		if err := readFull(p, sock, hbuf, hdrLen, nil); err != nil {
			return // client closed between requests
		}
		hdr, err := parseHdr(hbuf.Bytes())
		if err != nil || hdr.flow < 0 || hdr.flow >= len(r.flows) {
			r.frameErrs++
			return
		}
		f := r.flows[hdr.flow]
		if hdr.reqLen == bulkMark {
			r.serveBulk(p, f, sock, rbuf)
			return
		}
		if err := readFull(p, sock, rbuf, hdr.reqLen, checkPat(f, hdr.seq)); err != nil {
			f.fail("req %d: %v", hdr.seq, err)
			return
		}
		f.bytes += hdr.reqLen
		r.delivered('q', f.id, hdr.seq, p.Now())
		if hdr.respLen > 0 {
			fillPat(wbuf.Slice(0, hdr.respLen).Bytes(), f.id, hdr.seq, 0)
			if err := sock.WriteAll(p, wbuf.Slice(0, hdr.respLen)); err != nil {
				f.fail("resp write %d: %v", hdr.seq, err)
				return
			}
		}
	}
}

// serveBulk drains a bulk stream to EOF, verifying the pattern; bytes
// arriving within the measurement window count toward goodput.
func (r *runner) serveBulk(p *sim.Proc, f *flow, sock *socket.Socket, rbuf mem.Buf) {
	off := units.Size(0)
	corrupt := false
	for {
		rd, err := sock.Read(p, rbuf)
		if rd > 0 {
			if !corrupt {
				b := rbuf.Slice(0, rd).Bytes()
				if i := checkRamp(b, streamByte(f.id, off)); i >= 0 {
					f.fail("bulk corrupt at %d: got %#x want %#x", int(off)+i, b[i], streamByte(f.id, off+units.Size(i)))
					corrupt = true
				}
			}
			if now := p.Now(); now >= r.s.Warmup && now <= r.s.Duration {
				f.bytes += rd
			}
			off += rd
		}
		if err != nil {
			break
		}
	}
	f.streamed = off
	r.delivered('B', f.id, int(off), p.Now())
}

// --- UDP flows (one-way datagram streams) ---

func (r *runner) startUDPFlow(f *flow) {
	sh := f.server.h
	srv, err := socket.NewDGram(sh.K, sh.VM, f.server.task, sh.Stk,
		uint16(udpPortBase+f.id), sh.SocketConfig())
	if err != nil {
		f.fail("udp bind: %v", err)
		r.clientDone() // the client proc will never spawn
		return
	}
	maxReq, _ := r.s.maxSizes()
	maxPay := max(maxReq, r.s.BulkWrite)

	r.tb.Eng.Go(fmt.Sprintf("flow%d-udpsrv", f.id), func(p *sim.Proc) {
		rbuf := f.server.task.Space.Alloc(hdrLen+maxPay, 8)
		for {
			n, _, _ := srv.RecvFrom(p, rbuf)
			if n == 0 {
				return
			}
			if n < hdrLen {
				r.frameErrs++
				continue
			}
			hdr, err := parseHdr(rbuf.Bytes())
			if err != nil || hdr.flow != f.id || hdr.reqLen != n-hdrLen {
				r.frameErrs++
				continue
			}
			b := rbuf.Slice(hdrLen, hdr.reqLen).Bytes()
			if i := checkRamp(b, patByte(f.id, hdr.seq, 0)); i >= 0 {
				f.fail("dgram %d corrupt at %d: got %#x want %#x", hdr.seq, i, b[i], patByte(f.id, hdr.seq, i))
				continue
			}
			f.dgramsRcvd++
			if now := p.Now(); !r.s.Bulk || (now >= r.s.Warmup && now <= r.s.Duration) {
				f.bytes += hdr.reqLen
			}
			lat := p.Now() - hdr.sendTime
			f.lat.Observe(lat)
			r.aggLat.Observe(lat)
			r.delivered('d', f.id, hdr.seq, p.Now())
			if r.s.UDPServerThink > 0 {
				p.Sleep(r.s.UDPServerThink)
			}
		}
	})

	r.tb.Eng.Go(fmt.Sprintf("flow%d-udpcli", f.id), func(p *sim.Proc) {
		defer r.clientDone()
		ch := f.client.h
		cli, err := socket.NewDGram(ch.K, ch.VM, f.client.task, ch.Stk, 0, ch.SocketConfig())
		if err != nil {
			f.fail("udp client bind: %v", err)
			return
		}
		f.port = cli.Sock.Port()
		if d := r.startDelay(f); d > 0 {
			p.Sleep(d)
		}
		f.start = p.Now()
		wbuf := f.client.task.Space.Alloc(hdrLen+maxPay, 8)
		dst := serverAddr(f)
		dport := uint16(udpPortBase + f.id)
		send := func(seq int, pay units.Size) error {
			putHdr(wbuf.Bytes(), msgHdr{flow: f.id, seq: seq, reqLen: pay, sendTime: p.Now()})
			fillPat(wbuf.Slice(hdrLen, pay).Bytes(), f.id, seq, 0)
			f.dgramsSent++
			f.sentBytes += pay
			return cli.SendTo(p, wbuf.Slice(0, hdrLen+pay), dst, dport)
		}
		if r.s.Bulk {
			for seq := 0; p.Now() < r.s.Duration; seq++ {
				if err := send(seq, r.s.BulkWrite); err != nil {
					f.fail("udp send %d: %v", seq, err)
					break
				}
			}
			cli.Close()
			return
		}
		next := p.Now()
		for i := 0; i < r.s.Requests; i++ {
			if r.s.OpenLoop {
				if i > 0 {
					next += units.Time(f.rng.ExpFloat64() / r.s.Rate * float64(units.Second))
				}
				if now := p.Now(); next > now {
					p.Sleep(next - now)
				}
			} else if i > 0 && r.s.Think > 0 {
				p.Sleep(units.Time(f.rng.ExpFloat64() * float64(r.s.Think)))
			}
			cls := pick(r.s.Mix, f.rng)
			if err := send(i, cls.Req); err != nil {
				f.fail("udp send %d: %v", i, err)
				break
			}
		}
		cli.Close()
	})
}
