#include "textflag.h"

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	// Leaf 1, ECX: bit 27 OSXSAVE, bit 28 AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	// XCR0: the OS saves XMM (bit 1) and YMM (bit 2) state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	// Leaf 7, EBX: bit 5 AVX2.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func sumVector(b []byte) uint64
//
// len(b) is a non-zero multiple of 128 and at most 1 MB. Each 32-byte load
// is eight dwords; the low word of each (VPAND with 0x0000ffff) and the
// high word (VPSRLD by 16) are added into 32-bit lanes, four accumulators
// deep so the adds do not wait on each other. The lanes are summed into 64
// bits at the end.
TEXT ·sumVector(SB), NOSPLIT, $0-32
	MOVQ b_base+0(FP), SI
	MOVQ b_len+8(FP), CX
	VPXOR    Y0, Y0, Y0
	VPXOR    Y1, Y1, Y1
	VPXOR    Y2, Y2, Y2
	VPXOR    Y3, Y3, Y3
	VPCMPEQD Y15, Y15, Y15
	VPSRLD   $16, Y15, Y15

loop:
	VMOVDQU 0(SI), Y4
	VMOVDQU 32(SI), Y5
	VMOVDQU 64(SI), Y6
	VMOVDQU 96(SI), Y7
	VPSRLD  $16, Y4, Y8
	VPSRLD  $16, Y5, Y9
	VPSRLD  $16, Y6, Y10
	VPSRLD  $16, Y7, Y11
	VPAND   Y15, Y4, Y4
	VPAND   Y15, Y5, Y5
	VPAND   Y15, Y6, Y6
	VPAND   Y15, Y7, Y7
	VPADDD  Y4, Y0, Y0
	VPADDD  Y5, Y1, Y1
	VPADDD  Y6, Y2, Y2
	VPADDD  Y7, Y3, Y3
	VPADDD  Y8, Y0, Y0
	VPADDD  Y9, Y1, Y1
	VPADDD  Y10, Y2, Y2
	VPADDD  Y11, Y3, Y3
	ADDQ    $128, SI
	SUBQ    $128, CX
	JNZ     loop

	// The four accumulators together are the lanes' totals, which 1 MB
	// keeps below 2^32; widen to 64 bits and add across.
	VPADDD     Y1, Y0, Y0
	VPADDD     Y3, Y2, Y2
	VPADDD     Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPMOVZXDQ  X0, Y2
	VPMOVZXDQ  X1, Y3
	VPADDQ     Y3, Y2, Y2
	VEXTRACTI128 $1, Y2, X3
	VPADDQ     X3, X2, X2
	VPSHUFD    $0x4e, X2, X3
	VPADDQ     X3, X2, X2
	VMOVQ      X2, AX
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET
