package service

import "testing"

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
