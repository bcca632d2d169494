package topology

import "testing"

// TestNames pins the one name table: each of the nine names maps to its
// parameters, and an unknown name fails with the alternatives listed.
func TestNames(t *testing.T) {
	for _, c := range []struct {
		name string
		stub Params
		inet InternetParams
	}{
		{"small", Small, InternetPaper},
		{"medium", Medium, InternetMetro},
		{"big", Big, InternetGlobal},
	} {
		s, err := ScaleByName(c.name)
		if err != nil || s.Stub != c.stub || s.Internet != c.inet {
			t.Errorf("ScaleByName(%q) = %+v, %v; want %s and %s", c.name, s, err, c.stub.Name, c.inet.Name)
		}
	}
	for name, want := range map[string]InternetParams{"paper": InternetPaper, "metro": InternetMetro, "global": InternetGlobal} {
		if p, err := RungByName(name); err != nil || p != want {
			t.Errorf("RungByName(%q) = %+v, %v; want %s", name, p, err, want.Name)
		}
	}
	for name, want := range map[string]Scenario{"lan": LAN, "wan": WAN} {
		if s, err := ScenarioByName(name); err != nil || s != want {
			t.Errorf("ScenarioByName(%q) = %v, %v; want %v", name, s, err, want)
		}
	}

	for _, c := range []struct {
		lookup func(string) error
		name   string
		want   string
	}{
		{func(n string) error { _, err := ScaleByName(n); return err }, "huge", `unknown size "huge" (small, medium, big)`},
		{func(n string) error { _, err := ScaleByName(n); return err }, "paper", `unknown size "paper" (small, medium, big)`},
		{func(n string) error { _, err := RungByName(n); return err }, "warp", `unknown internet rung "warp" (paper, metro, global)`},
		{func(n string) error { _, err := RungByName(n); return err }, "small", `unknown internet rung "small" (paper, metro, global)`},
		{func(n string) error { _, err := ScenarioByName(n); return err }, "LAN", `unknown scenario "LAN" (lan, wan)`},
		{func(n string) error { _, err := ScenarioByName(n); return err }, "", `unknown scenario "" (lan, wan)`},
	} {
		if err := c.lookup(c.name); err == nil || err.Error() != c.want {
			t.Errorf("lookup of %q: %v, want %s", c.name, err, c.want)
		}
	}
}
