package topology

import (
	"fmt"
	"strings"
)

// A Scale is one named evaluation scale: the paper's transit-stub size and
// the internet rung of the same scale.
type Scale struct {
	Name     string // small, medium, big
	Stub     Params
	Rung     string // paper, metro, global
	Internet InternetParams
}

// Scales is the one table of size and rung names, in size order; the root
// package's Size enum indexes it from 1. Every command, the scenario DSL
// and the model checker parse names through it.
var Scales = [...]Scale{
	{"small", Small, "paper", InternetPaper},
	{"medium", Medium, "metro", InternetMetro},
	{"big", Big, "global", InternetGlobal},
}

// Scenarios lists the propagation models in enum order, which the root
// package's Scenario enum indexes from 1; a scenario's name is its String
// in lower case.
var Scenarios = [...]Scenario{LAN, WAN}

// ScaleByName looks a size name up in Scales.
func ScaleByName(name string) (Scale, error) {
	return lookup("size", name, Scales[:], func(s Scale) string { return s.Name })
}

// RungByName looks an internet rung name up in Scales.
func RungByName(name string) (InternetParams, error) {
	s, err := lookup("internet rung", name, Scales[:], func(s Scale) string { return s.Rung })
	return s.Internet, err
}

// ScenarioByName looks a propagation model up by name (lan, wan).
func ScenarioByName(name string) (Scenario, error) {
	return lookup("scenario", name, Scenarios[:], func(s Scenario) string { return strings.ToLower(s.String()) })
}

// GenerateByName generates the topology a command line names: the internet
// rung of the size when internet is set (scen is then not read), and the
// transit-stub network of the size under scen otherwise.
func GenerateByName(size, scen string, internet bool, seed int64) (Hosted, error) {
	s, err := ScaleByName(size)
	if err != nil {
		return nil, err
	}
	if internet {
		return GenerateInternet(s.Internet, seed)
	}
	sc, err := ScenarioByName(scen)
	if err != nil {
		return nil, err
	}
	return Generate(s.Stub, sc, seed)
}

// lookup returns the entry of table whose key is name, or an error that
// lists every key.
func lookup[T any](kind, name string, table []T, key func(T) string) (T, error) {
	names := make([]string, len(table))
	for i, v := range table {
		if names[i] = key(v); names[i] == name {
			return v, nil
		}
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q (%s)", kind, name, strings.Join(names, ", "))
}
