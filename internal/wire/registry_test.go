package wire

import (
	"strings"
	"testing"
)

// TestFrameRegistryDense pins the protocol's frame map: every message
// type from 1 through the highest assigned number is registered, with a
// unique name (the table is indexed by frame number, so a reused number
// does not compile) — except the retired numbers, which must stay empty
// rows forever. This is the guard against the ad-hoc frame
// numbering that produced collisions-in-waiting before the registry
// existed — adding a frame without registering it fails here. It also
// pins each row's shape: a request row is served exactly one way, a
// response row not at all.
func TestFrameRegistryDense(t *testing.T) {
	byName := map[string]MsgType{}
	retired := map[MsgType]bool{5: true, 6: true, 9: true, 10: true, 11: true, 12: true, 13: true, 14: true,
		17: true, 24: true, 25: true, 26: true}
	max := MsgType(len(frameRegistry) - 1)
	for n := MsgType(1); n <= max; n++ {
		e := frameRegistry[n]
		if retired[n] {
			if e.Name != "" || e.need != capNone || e.group != nil || e.own != nil {
				t.Errorf("retired frame number %d has been reused as %q", n, e.Name)
			}
			continue
		}
		if e.Name == "" {
			t.Errorf("frame number %d unassigned — the registry has a gap", n)
			continue
		}
		if prev, dup := byName[e.Name]; dup {
			t.Errorf("frame name %q registered twice: %d and %d", e.Name, prev, n)
		}
		byName[e.Name] = n
		served := 0
		if e.group != nil {
			served++
		}
		if e.own != nil {
			served++
		}
		switch {
		case e.need == capNone && served != 0:
			t.Errorf("frame %s needs no capability but has a serving row", e.Name)
		case e.need != capNone && served != 1:
			t.Errorf("request frame %s is served %d ways, want exactly one", e.Name, served)
		}
		if e.span && e.group == nil {
			t.Errorf("frame %s is span-bound but not a range row", e.Name)
		}
	}
	if want := MsgType(41); max != want {
		t.Errorf("highest registered frame = %d, want %d (update this test when adding frames)", max, want)
	}
}

// TestFrameRegistryMatchesConstants spot-checks that registry entries
// point at the constants they name, so a renumbering in frame.go cannot
// silently detach the table from the protocol.
func TestFrameRegistryMatchesConstants(t *testing.T) {
	checks := []struct {
		typ  MsgType
		name string
	}{
		{MsgQuery, "Query"},
		{MsgVerifiedResult, "VerifiedResult"},
		{MsgPlanUpdate, "PlanUpdate"},
		{MsgFreeze, "Freeze"},
		{MsgThaw, "Thaw"},
		{MsgRetire, "Retire"},
		{MsgReshardCutover, "ReshardCutover"},
		{MsgVerifiedAgg, "VerifiedAgg"},
		{MsgVerifiedAggResult, "VerifiedAggResult"},
	}
	for _, c := range checks {
		if got := FrameName(c.typ); got != c.name {
			t.Errorf("FrameName(%d) = %q, want %q", c.typ, got, c.name)
		}
	}
	if got := FrameName(MsgType(250)); !strings.Contains(got, "250") {
		t.Errorf("FrameName for an unknown type = %q, want it to carry the number", got)
	}
}
