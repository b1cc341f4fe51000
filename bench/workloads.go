package main

// workload is one canonical deck plus how the harness runs it.
type workload struct {
	Name string
	// MaxProcs pins GOMAXPROCS in the child; 0 means every core.
	MaxProcs int
	// FleetNodes is how many loopback evaluation nodes the child starts.
	FleetNodes int
}

// deckFile is the workload's deck under bench/decks.
func (w workload) deckFile() string { return w.Name + ".deck" }

// workloads is the canonical set, in the order the suite runs them.
var workloads = []workload{
	{Name: "eam_serial"},
	{Name: "eam_parallel_2r"},
	{Name: "eam_fleet_2n", MaxProcs: 1, FleetNodes: 2},
	{Name: "eam_durable"},
	{Name: "nnp_direct"},
	{Name: "nnp_cached"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
