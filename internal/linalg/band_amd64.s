#include "textflag.h"

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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func laneBlock(rows, l, s *float64, b int) (ok bool)
//
// Every lane computes a product with VMULPD and subtracts it with VSUBPD,
// never fused, in the row loop's order: its bits are the row loop's.
TEXT ·laneBlock(SB), NOSPLIT, $0-33
	MOVQ rows+0(FP), DI
	MOVQ l+8(FP), DX
	MOVQ s+16(FP), SI
	MOVQ b+24(FP), BX
	LEAQ (BX*8), R8         // rows i … i+3 and L's rows lie b values apart
	LEAQ (R8)(R8*2), R9     // three of them
	MOVQ BX, AX
	SHLQ $5, AX
	ADDQ SI, AX             // AX = column i's four lanes

	// Gather lane t's column p from rows[p+t·b], noting any −0.
	MOVQ         $0x8000000000000000, CX
	MOVQ         CX, X14
	VPBROADCASTQ X14, Y14
	VPXOR        Y13, Y13, Y13
	MOVQ         DI, R11
	MOVQ         SI, R10
	LEAQ         3(BX), CX

gather:
	VMOVSD      (R11), X0
	VMOVHPD     (R11)(R8*1), X0, X0
	VMOVSD      (R11)(R8*2), X1
	VMOVHPD     (R11)(R9*1), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VPCMPEQQ    Y14, Y0, Y1
	VPOR        Y1, Y13, Y13
	VMOVUPD     Y0, (R10)
	ADDQ        $8, R11
	ADDQ        $32, R10
	DECQ        CX
	JNZ         gather
	VPTEST      Y13, Y13
	JNZ         fail

	// The diagonals into Y12, rows b+1 values apart.
	LEAQ        (DI)(R8*1), R11
	LEAQ        8(R8), R12
	LEAQ        (R12)(R12*2), R13
	VMOVSD      (R11), X12
	VMOVHPD     (R11)(R12*1), X12, X12
	VMOVSD      (R11)(R12*2), X1
	VMOVHPD     (R11)(R13*1), X1, X1
	VINSERTF128 $1, X1, Y12, Y12

	// Zero lane t's columns before its band; the lanes past a row's
	// diagonal are zeroed below, where they are first used.
	VXORPD   Y15, Y15, Y15
	VBLENDPD $0x1, (SI), Y15, Y0
	VMOVUPD  Y0, (SI)
	VBLENDPD $0x3, 32(SI), Y15, Y0
	VMOVUPD  Y0, 32(SI)
	VBLENDPD $0x7, 64(SI), Y15, Y0
	VMOVUPD  Y0, 64(SI)

	MOVQ SI, R10            // R10 = column p's lanes
	MOVQ DX, R11            // R11 = row p's column 0 in l
	MOVQ BX, CX
	ANDQ $3, CX
	JZ   quads

	// The b mod 4 leftover columns, one at a time.
single:
	VMOVUPD (R10), Y0
	MOVQ    SI, R12
	MOVQ    R11, R13

singleq:
	CMPQ         R12, R10
	JAE          singledone
	VBROADCASTSD (R13), Y4
	VMULPD       (R12), Y4, Y4
	VSUBPD       Y4, Y0, Y0
	ADDQ         $32, R12
	ADDQ         $8, R13
	JMP          singleq

singledone:
	VMOVUPD Y0, (R10)
	ADDQ    $32, R10
	ADDQ    R8, R11
	DECQ    CX
	JNZ     single

	// Columns p … p+3 over their shared columns q < p, then their triangle.
quads:
	CMPQ    R10, AX
	JAE     divide
	VMOVUPD (R10), Y0
	VMOVUPD 32(R10), Y1
	VMOVUPD 64(R10), Y2
	VMOVUPD 96(R10), Y3
	MOVQ    SI, R12
	MOVQ    R11, R13

quadq:
	CMPQ         R12, R10
	JAE          triangle
	VMOVUPD      (R12), Y8
	VBROADCASTSD (R13), Y4
	VBROADCASTSD (R13)(R8*1), Y5
	VBROADCASTSD (R13)(R8*2), Y6
	VBROADCASTSD (R13)(R9*1), Y7
	VMULPD       Y8, Y4, Y4
	VMULPD       Y8, Y5, Y5
	VMULPD       Y8, Y6, Y6
	VMULPD       Y8, Y7, Y7
	VSUBPD       Y4, Y0, Y0
	VSUBPD       Y5, Y1, Y1
	VSUBPD       Y6, Y2, Y2
	VSUBPD       Y7, Y3, Y3
	ADDQ         $32, R12
	ADDQ         $8, R13
	JMP          quadq

triangle:
	// R13 points at row p's column p.
	VBROADCASTSD (R13)(R8*1), Y5
	VMULPD       Y0, Y5, Y5
	VSUBPD       Y5, Y1, Y1
	VBROADCASTSD (R13)(R8*2), Y6
	VMULPD       Y0, Y6, Y6
	VSUBPD       Y6, Y2, Y2
	VBROADCASTSD 8(R13)(R8*2), Y6
	VMULPD       Y1, Y6, Y6
	VSUBPD       Y6, Y2, Y2
	VBROADCASTSD (R13)(R9*1), Y7
	VMULPD       Y0, Y7, Y7
	VSUBPD       Y7, Y3, Y3
	VBROADCASTSD 8(R13)(R9*1), Y7
	VMULPD       Y1, Y7, Y7
	VSUBPD       Y7, Y3, Y3
	VBROADCASTSD 16(R13)(R9*1), Y7
	VMULPD       Y2, Y7, Y7
	VSUBPD       Y7, Y3, Y3
	VMOVUPD      Y0, (R10)
	VMOVUPD      Y1, 32(R10)
	VMOVUPD      Y2, 64(R10)
	VMOVUPD      Y3, 96(R10)
	ADDQ         $128, R10
	LEAQ         (R11)(R8*4), R11
	JMP          quads

	// The divisions, with the dots of columns i … i+2 (Y1 … Y3) taking
	// lanes 0 … 2 of each column's quotients as their L rows. Pivots lie
	// b+1 values apart from l on.
divide:
	VMOVAPD Y12, Y0
	VMOVUPD (AX), Y1
	VMOVUPD 32(AX), Y2
	VMOVUPD 64(AX), Y3
	MOVQ    SI, R10
	MOVQ    DX, R11
	LEAQ    8(R8), R12

divq:
	CMPQ         R10, AX
	JAE          own
	VMOVUPD      (R10), Y4
	VBROADCASTSD (R11), Y5
	VDIVPD       Y5, Y4, Y6
	VMULPD       Y6, Y4, Y7
	VSUBPD       Y7, Y0, Y0
	VMOVUPD      Y6, (R10)
	VPERMPD      $0x00, Y6, Y8
	VMULPD       Y8, Y4, Y8
	VSUBPD       Y8, Y1, Y1
	VPERMPD      $0x55, Y6, Y9
	VMULPD       Y9, Y4, Y9
	VSUBPD       Y9, Y2, Y2
	VPERMPD      $0xaa, Y6, Y10
	VMULPD       Y10, Y4, Y10
	VSUBPD       Y10, Y3, Y3
	ADDQ         $32, R10
	ADDQ         R12, R11
	JMP          divq

	// Column i+s holds u in lanes s+1 … 3 only; the lanes at and before
	// row i+s's diagonal are zeroed, and row i+s's pivot is lane s of Y0.
own:
	VBLENDPD $0x1, Y15, Y1, Y4
	VPERMPD  $0x00, Y0, Y5
	VDIVPD   Y5, Y4, Y6
	VMULPD   Y6, Y4, Y7
	VSUBPD   Y7, Y0, Y0
	VMOVUPD  Y6, (AX)
	VPERMPD  $0x55, Y6, Y9
	VMULPD   Y9, Y4, Y9
	VSUBPD   Y9, Y2, Y2
	VPERMPD  $0xaa, Y6, Y10
	VMULPD   Y10, Y4, Y10
	VSUBPD   Y10, Y3, Y3

	VBLENDPD $0x3, Y15, Y2, Y4
	VPERMPD  $0x55, Y0, Y5
	VDIVPD   Y5, Y4, Y6
	VMULPD   Y6, Y4, Y7
	VSUBPD   Y7, Y0, Y0
	VMOVUPD  Y6, 32(AX)
	VPERMPD  $0xaa, Y6, Y10
	VMULPD   Y10, Y4, Y10
	VSUBPD   Y10, Y3, Y3

	VBLENDPD $0x7, Y15, Y3, Y4
	VPERMPD  $0xaa, Y0, Y5
	VDIVPD   Y5, Y4, Y6
	VMULPD   Y6, Y4, Y7
	VSUBPD   Y7, Y0, Y0
	VMOVUPD  Y6, 64(AX)

	// Hand the block back only if every pivot is positive (not NaN).
	VCMPPD    $0x1e, Y15, Y0, Y1
	VMOVMSKPD Y1, CX
	CMPQ      CX, $0xf
	JNE       fail

	// Scatter columns 0 … b−1 whole: a zero lane before a row's band lands
	// on a place of the columns or diagonals written after it.
	MOVQ SI, R10
	MOVQ DI, R11
	MOVQ BX, CX

scatter:
	VMOVUPD      (R10), Y1
	VMOVSD       X1, (R11)
	VMOVHPD      X1, (R11)(R8*1)
	VEXTRACTF128 $1, Y1, X2
	VMOVSD       X2, (R11)(R8*2)
	VMOVHPD      X2, (R11)(R9*1)
	ADDQ         $32, R10
	ADDQ         $8, R11
	DECQ         CX
	JNZ          scatter

	// R11 = rows[b]. Columns i … i+2 in lanes past their diagonal only,
	// then the pivots at rows[b+t·(b+1)].
	VMOVUPD      (AX), Y1
	VMOVHPD      X1, (R11)(R8*1)
	VEXTRACTF128 $1, Y1, X2
	VMOVSD       X2, (R11)(R8*2)
	VMOVHPD      X2, (R11)(R9*1)
	VMOVUPD      32(AX), Y1
	VEXTRACTF128 $1, Y1, X2
	VMOVSD       X2, 8(R11)(R8*2)
	VMOVHPD      X2, 8(R11)(R9*1)
	VMOVUPD      64(AX), Y1
	VEXTRACTF128 $1, Y1, X2
	VMOVHPD      X2, 16(R11)(R9*1)
	VMOVSD       X0, (R11)
	VMOVHPD      X0, 8(R11)(R8*1)
	VEXTRACTF128 $1, Y0, X2
	VMOVSD       X2, 16(R11)(R8*2)
	VMOVHPD      X2, 24(R11)(R9*1)
	MOVB         $1, ok+32(FP)
	VZEROUPPER
	RET

fail:
	MOVB $0, ok+32(FP)
	VZEROUPPER
	RET
