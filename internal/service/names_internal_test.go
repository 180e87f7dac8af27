package service

import (
	"fmt"
	"testing"

	"repro/internal/arbiters"
	"repro/internal/games"
	"repro/internal/simulate"
)

// TestServedMachineNamesDistinct pins what the whole-game memo key
// relies on: core.evalSeed writes a machine's Name in place of its
// semantics, so two served machines sharing a name would answer each
// other's games from the memo. Every decide machine and every verify
// arbiter's machine must carry a name of its own, and none may be empty
// (an unnamed machine is never memoized, which would hide a served
// property from the memo silently).
func TestServedMachineNamesDistinct(t *testing.T) {
	t.Parallel()
	owner := map[string]string{} // machine name -> the catalog entry using it
	claim := func(entry, name string) {
		if name == "" {
			t.Errorf("%s: machine has no name", entry)
			return
		}
		if prev, ok := owner[name]; ok {
			t.Errorf("%s and %s share the machine name %q", prev, entry, name)
			return
		}
		owner[name] = entry
	}
	for _, name := range DecideNames() {
		claim("decide "+name, decideMachines()[name].Name)
	}
	for _, name := range VerifyNames() {
		claim("verify "+name, verifiers()[name].arb().Machine.Name)
	}
}

// TestCatalogMachineNamesDistinct extends that check from the served
// catalogs to every catalog constructor, since behaviour may change
// under a kept name but two machines may never share one. The arbiters
// deciders and verifiers (KColorable for each k up to 6) and the games
// arbiters must each carry a name of their own, and every served
// machine must carry one of those names.
func TestCatalogMachineNamesDistinct(t *testing.T) {
	t.Parallel()
	catalog := map[string]*simulate.Machine{
		"arbiters.AllSelected":         arbiters.AllSelected(),
		"arbiters.Eulerian":            arbiters.Eulerian(),
		"arbiters.AllEqual":            arbiters.AllEqual(),
		"arbiters.SatGraph":            arbiters.SatGraph(),
		"games.NotAllSelectedArbiter":  games.NotAllSelectedArbiter().Machine,
		"games.OneSelectedArbiter":     games.OneSelectedArbiter().Machine,
		"games.HamiltonianArbiter":     games.HamiltonianArbiter().Machine,
		"games.NonTwoColorableArbiter": games.NonTwoColorableArbiter().Machine,
		"games.AcyclicArbiter":         games.AcyclicArbiter().Machine,
		"games.OddArbiter":             games.OddArbiter().Machine,
	}
	for k := 1; k <= 6; k++ {
		catalog[fmt.Sprintf("arbiters.KColorable(%d)", k)] = arbiters.KColorable(k)
	}
	byName := map[string]string{} // machine name -> constructor
	for _, c := range sortedKeys(catalog) {
		name := catalog[c].Name
		if name == "" {
			t.Errorf("%s: machine has no name", c)
		} else if prev, ok := byName[name]; ok {
			t.Errorf("%s and %s share the machine name %q", prev, c, name)
		}
		byName[name] = c
	}
	served := func(entry string, m *simulate.Machine) {
		if _, ok := byName[m.Name]; !ok {
			t.Errorf("%s: machine %q comes from no catalog constructor", entry, m.Name)
		}
	}
	for name, m := range decideMachines() {
		served("decide "+name, m)
	}
	for name, v := range verifiers() {
		served("verify "+name, v.arb().Machine)
	}
}
