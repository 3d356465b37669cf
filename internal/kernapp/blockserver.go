package kernapp

import (
	"encoding/binary"

	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/tcpip"
	"repro/internal/units"
)

// BlockServer is a file-server-style in-kernel application: an IO-intensive
// kernel network user of the kind Section 5 motivates. It serves
// fixed-size blocks from an in-kernel "buffer cache" (cluster mbufs) over
// TCP; because the buffers are shared mbufs, transmission over the CAB is
// single-copy with outboard checksumming, with no stack changes.
//
// Protocol: the client sends 8-byte requests (uint32 block id, uint32
// block count, big-endian); the server responds with count blocks of
// BlockSize bytes. A request for count 0 closes the stream.
type BlockServer struct {
	K         *kern.Kernel
	Stk       *tcpip.Stack
	Port      uint16
	BlockSize units.Size

	// Requests and BlocksServed count activity.
	Requests, BlocksServed int
}

// ReqLen is the wire size of one block request.
const ReqLen = 8

// NewBlockServer returns a server configuration (not yet running).
func NewBlockServer(k *kern.Kernel, stk *tcpip.Stack, port uint16, blockSize units.Size) *BlockServer {
	return &BlockServer{K: k, Stk: stk, Port: port, BlockSize: blockSize}
}

// Block returns the deterministic contents of block id (so clients can
// verify integrity end to end).
func (bs *BlockServer) Block(id uint32) []byte {
	b := make([]byte, bs.BlockSize)
	for i := range b {
		b[i] = byte(uint32(i)*7 + id*13 + 1)
	}
	return b
}

// blockChain builds the shared-mbuf representation of a block, as a buffer
// cache would hand it over.
func (bs *BlockServer) blockChain(id uint32) *mbuf.Mbuf {
	data := bs.Block(id)
	var head, tail *mbuf.Mbuf
	for off := units.Size(0); off < bs.BlockSize; off += mbuf.MCLBYTES {
		n := bs.BlockSize - off
		if n > mbuf.MCLBYTES {
			n = mbuf.MCLBYTES
		}
		m := bs.K.Mbufs.NewCluster(data[off : off+n])
		if head == nil {
			head = m
		} else {
			tail.SetNext(m)
		}
		tail = m
	}
	return head
}

// Run listens and serves until the engine stops; spawn it as a kernel
// process. Each connection is served by its own kernel process.
func (bs *BlockServer) Run(p *sim.Proc) {
	lis := bs.Stk.Listen(bs.Port)
	for {
		conn := lis.Accept(p)
		kc := NewKConn(bs.K, conn)
		bs.K.Eng.Go("blockserver/conn", func(cp *sim.Proc) { bs.serve(cp, kc) })
	}
}

func (bs *BlockServer) serve(p *sim.Proc, kc *KConn) {
	var pending []byte
	for {
		// Accumulate a full request.
		for len(pending) < ReqLen {
			chain, err := kc.Recv(p, 64*units.KB)
			if err != nil || chain == nil {
				return
			}
			pending = append(pending, mbuf.Materialize(chain)...)
			mbuf.FreeChain(chain)
		}
		id := binary.BigEndian.Uint32(pending[0:])
		count := binary.BigEndian.Uint32(pending[4:])
		pending = pending[ReqLen:]
		bs.Requests++
		if count == 0 {
			kc.Close(p)
			return
		}
		for i := uint32(0); i < count; i++ {
			if err := kc.Send(p, bs.blockChain(id+i)); err != nil {
				return
			}
			bs.BlocksServed++
		}
	}
}

// EncodeRequest builds the wire form of a block request.
func EncodeRequest(id, count uint32) []byte {
	b := make([]byte, ReqLen)
	binary.BigEndian.PutUint32(b[0:], id)
	binary.BigEndian.PutUint32(b[4:], count)
	return b
}
