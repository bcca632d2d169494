#include "textflag.h"

// func prefetch(p unsafe.Pointer, n uintptr)
//
// One PREFETCHT0 per 64-byte line of [p, p+n): from the line holding p up to
// the one holding p+n-1, so an unaligned tail is covered. A prefetch never
// faults, whatever the address.
TEXT ·prefetch(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ n+8(FP), BX
	ADDQ AX, BX
	ANDQ $~63, AX

loop:
	CMPQ AX, BX
	JAE  done
	PREFETCHT0 (AX)
	ADDQ $64, AX
	JMP  loop

done:
	RET
