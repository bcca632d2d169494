package waterfill

import "bneck/internal/rate"

// Bottlenecks returns, for each session, the links of its path that are its
// bottlenecks under the given max-min rates (Definition 1 of the paper:
// link e is a bottleneck of s iff Σ_{s'∈Se} λ_s' = C_e and λ_s = max over
// Se). Sessions restricted only by their demand get an empty list.
//
// This is the attribution question a network operator asks — "which link
// limits this session?" — and also what the paper's R*_e / F*_e partition
// formalizes.
func Bottlenecks(in Instance, rates []rate.Rate) [][]int {
	load, maxAt := linkLoads(in, rates)
	out := make([][]int, len(in.Sessions))
	for i, s := range in.Sessions {
		for _, e := range s.Path {
			if load[e].Equal(in.Capacity[e]) && rates[i].Equal(maxAt[e]) {
				out[i] = append(out[i], e)
			}
		}
	}
	return out
}
