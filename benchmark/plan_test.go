package main

import (
	"reflect"
	"testing"
)

func TestPlanIsPureFunctionOfSeed(t *testing.T) {
	for _, name := range workloadNames {
		for _, sc := range []scale{scales["tiny"], scales["full"]} {
			a, err := newPlan(name, 7, sc)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := newPlan(name, 7, sc)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%s: two plans of seed 7 differ", name, sc.name)
			}
			c, _ := newPlan(name, 8, sc)
			if reflect.DeepEqual(a.epochs, c.epochs) {
				t.Errorf("%s/%s: seeds 7 and 8 give the same epochs", name, sc.name)
			}
			if a.checks() < len(a.epochs) {
				t.Errorf("%s/%s: %d checks for %d epochs", name, sc.name, a.checks(), len(a.epochs))
			}
		}
	}
	if _, err := newPlan("nope", 1, scales["tiny"]); err == nil {
		t.Error("unknown workload accepted")
	}
}

// An epoch may touch a session once, and only in a state where the call
// means something: otherwise the outcome would depend on the order the
// calls land in, which the live workload does not fix.
func TestChurnEpochsAreOrderIndependent(t *testing.T) {
	for _, name := range []string{wlChurn, wlLive} {
		p, _ := newPlan(name, 3, scales["full"])
		active := make(map[int]bool)
		for e, ep := range p.epochs {
			seen := make(map[int]bool)
			for _, o := range ep.ops {
				if seen[o.sess] {
					t.Fatalf("%s epoch %d touches session %d twice", name, e, o.sess)
				}
				seen[o.sess] = true
				if (o.kind == opJoin) == active[o.sess] {
					t.Fatalf("%s epoch %d: op %d on session %d in the wrong state", name, e, o.kind, o.sess)
				}
			}
			for _, o := range ep.ops {
				switch o.kind {
				case opJoin:
					active[o.sess] = true
				case opLeave:
					delete(active, o.sess)
				}
			}
		}
	}
}

func TestLinkPicker(t *testing.T) {
	lp := newLinkPicker(3)
	a := lp.pickUp(4) // 4 mod 3
	if a != 1 {
		t.Fatalf("pickUp = %d", a)
	}
	lp.fail(a)
	if b := lp.pickUp(4); b != 2 {
		t.Fatalf("pickUp skipping a failed link = %d", b)
	}
	lp.fail(2)
	lp.fail(0)
	if lp.pickUp(9) != -1 {
		t.Fatal("pickUp found an up link among none")
	}
	if got := lp.restoreOldest(); got != 1 {
		t.Fatalf("restoreOldest = %d", got)
	}
	if lp.pickUp(0) != 1 {
		t.Fatal("restored link is not up")
	}
}
