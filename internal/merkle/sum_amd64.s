// Copyright 2024 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// The LICENSE file above is the Go distribution's (https://go.dev/LICENSE).
//
// The SHA-256 compression below is Go's SHA-NI block function
// (crypto/internal/fips140/sha256, blockSHANI) with four changes: it
// starts from the SHA-256 IV instead of a running digest, it stores the
// final state as the big-endian digest, it reads a plain 256-byte
// round-constant table (Go's is laid out for its AVX2 routine, each row
// twice), and its VEX moves are legacy SSE moves, so it needs SHA, SSSE3
// and SSE4.1 but not AVX.

//go:build !purego

#include "textflag.h"

// func blockSum(out *Hash, buf *[128]byte, n int)
// Requires: SHA, SSE2, SSE4.1, SSSE3
TEXT ·blockSum(SB), NOSPLIT, $0-24
	MOVQ  out+0(FP), DI
	MOVQ  buf+8(FP), SI
	MOVQ  n+16(FP), DX
	ADDQ  SI, DX
	MOVOU iv<>+0(SB), X1  // ABEF
	MOVOU iv<>+16(SB), X2 // CDGH
	MOVOU flip_mask<>+0(SB), X8
	LEAQ  k256<>+0(SB), AX

roundLoop:
	// save hash values for addition after rounds
	MOVO    X1, X9
	MOVO    X2, X10

	// do rounds 0-59
	MOVOU       (SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X3
	PADDD       (AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	MOVOU       16(SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X4
	PADDD       16(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVOU       32(SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X5
	PADDD       32(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVOU       48(SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X6
	PADDD       48(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       64(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       80(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVO        X5, X0
	PADDD       96(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVO        X6, X0
	PADDD       112(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       128(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       144(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVO        X5, X0
	PADDD       160(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVO        X6, X0
	PADDD       176(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       192(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       208(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	MOVO        X5, X0
	PADDD       224(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1

	// do rounds 60-63
	MOVO        X6, X0
	PADDD       240(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1

	// add current hash values with previously saved
	PADDD X9, X1
	PADDD X10, X2

	// advance data pointer; loop until buffer empty
	ADDQ $0x40, SI
	CMPQ DX, SI
	JNE  roundLoop

	// write hash values back in the correct order, big-endian
	PSHUFD  $0x1b, X1, X1
	PSHUFD  $0xb1, X2, X2
	MOVO    X1, X7
	PBLENDW $0xf0, X2, X1
	PALIGNR $0x08, X7, X2
	PSHUFB  X8, X1
	PSHUFB  X8, X2
	MOVOU   X1, (DI)
	MOVOU   X2, 16(DI)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// The SHA-256 IV (FIPS 180-4 H0..H7 = a..h) in SHA256RNDS2's state layout:
// dwords f, e, b, a (ABEF) then h, g, d, c (CDGH).
DATA iv<>+0(SB)/4, $0x9b05688c
DATA iv<>+4(SB)/4, $0x510e527f
DATA iv<>+8(SB)/4, $0xbb67ae85
DATA iv<>+12(SB)/4, $0x6a09e667
DATA iv<>+16(SB)/4, $0x5be0cd19
DATA iv<>+20(SB)/4, $0x1f83d9ab
DATA iv<>+24(SB)/4, $0xa54ff53a
DATA iv<>+28(SB)/4, $0x3c6ef372
GLOBL iv<>(SB), RODATA|NOPTR, $32

// Byte swap within each dword: message words and digest words are
// big-endian.
DATA flip_mask<>+0(SB)/8, $0x0405060700010203
DATA flip_mask<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL flip_mask<>(SB), RODATA|NOPTR, $16

// The 64 round constants, four per 16-byte row; PADDD reads the rows from
// memory, which the linker aligns for a 256-byte symbol.
DATA k256<>+0(SB)/4, $0x428a2f98
DATA k256<>+4(SB)/4, $0x71374491
DATA k256<>+8(SB)/4, $0xb5c0fbcf
DATA k256<>+12(SB)/4, $0xe9b5dba5
DATA k256<>+16(SB)/4, $0x3956c25b
DATA k256<>+20(SB)/4, $0x59f111f1
DATA k256<>+24(SB)/4, $0x923f82a4
DATA k256<>+28(SB)/4, $0xab1c5ed5
DATA k256<>+32(SB)/4, $0xd807aa98
DATA k256<>+36(SB)/4, $0x12835b01
DATA k256<>+40(SB)/4, $0x243185be
DATA k256<>+44(SB)/4, $0x550c7dc3
DATA k256<>+48(SB)/4, $0x72be5d74
DATA k256<>+52(SB)/4, $0x80deb1fe
DATA k256<>+56(SB)/4, $0x9bdc06a7
DATA k256<>+60(SB)/4, $0xc19bf174
DATA k256<>+64(SB)/4, $0xe49b69c1
DATA k256<>+68(SB)/4, $0xefbe4786
DATA k256<>+72(SB)/4, $0x0fc19dc6
DATA k256<>+76(SB)/4, $0x240ca1cc
DATA k256<>+80(SB)/4, $0x2de92c6f
DATA k256<>+84(SB)/4, $0x4a7484aa
DATA k256<>+88(SB)/4, $0x5cb0a9dc
DATA k256<>+92(SB)/4, $0x76f988da
DATA k256<>+96(SB)/4, $0x983e5152
DATA k256<>+100(SB)/4, $0xa831c66d
DATA k256<>+104(SB)/4, $0xb00327c8
DATA k256<>+108(SB)/4, $0xbf597fc7
DATA k256<>+112(SB)/4, $0xc6e00bf3
DATA k256<>+116(SB)/4, $0xd5a79147
DATA k256<>+120(SB)/4, $0x06ca6351
DATA k256<>+124(SB)/4, $0x14292967
DATA k256<>+128(SB)/4, $0x27b70a85
DATA k256<>+132(SB)/4, $0x2e1b2138
DATA k256<>+136(SB)/4, $0x4d2c6dfc
DATA k256<>+140(SB)/4, $0x53380d13
DATA k256<>+144(SB)/4, $0x650a7354
DATA k256<>+148(SB)/4, $0x766a0abb
DATA k256<>+152(SB)/4, $0x81c2c92e
DATA k256<>+156(SB)/4, $0x92722c85
DATA k256<>+160(SB)/4, $0xa2bfe8a1
DATA k256<>+164(SB)/4, $0xa81a664b
DATA k256<>+168(SB)/4, $0xc24b8b70
DATA k256<>+172(SB)/4, $0xc76c51a3
DATA k256<>+176(SB)/4, $0xd192e819
DATA k256<>+180(SB)/4, $0xd6990624
DATA k256<>+184(SB)/4, $0xf40e3585
DATA k256<>+188(SB)/4, $0x106aa070
DATA k256<>+192(SB)/4, $0x19a4c116
DATA k256<>+196(SB)/4, $0x1e376c08
DATA k256<>+200(SB)/4, $0x2748774c
DATA k256<>+204(SB)/4, $0x34b0bcb5
DATA k256<>+208(SB)/4, $0x391c0cb3
DATA k256<>+212(SB)/4, $0x4ed8aa4a
DATA k256<>+216(SB)/4, $0x5b9cca4f
DATA k256<>+220(SB)/4, $0x682e6ff3
DATA k256<>+224(SB)/4, $0x748f82ee
DATA k256<>+228(SB)/4, $0x78a5636f
DATA k256<>+232(SB)/4, $0x84c87814
DATA k256<>+236(SB)/4, $0x8cc70208
DATA k256<>+240(SB)/4, $0x90befffa
DATA k256<>+244(SB)/4, $0xa4506ceb
DATA k256<>+248(SB)/4, $0xbef9a3f7
DATA k256<>+252(SB)/4, $0xc67178f2
GLOBL k256<>(SB), RODATA|NOPTR, $256
