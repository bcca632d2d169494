#include "textflag.h"

// func prefetch(p unsafe.Pointer, n uintptr)
//
// One PRFM PLDL1KEEP per 64-byte line of [p, p+n): from the line holding p
// up to the one holding p+n-1, so an unaligned tail is covered. A prefetch
// never faults, whatever the address.
TEXT ·prefetch(SB), NOSPLIT|NOFRAME, $0-16
	MOVD p+0(FP), R0
	MOVD n+8(FP), R1
	ADD  R0, R1, R1
	AND  $~63, R0, R0

loop:
	CMP  R1, R0
	BHS  done
	PRFM (R0), PLDL1KEEP
	ADD  $64, R0, R0
	B    loop

done:
	RET
