package core

import (
	"strings"

	"repro/internal/simulate"
)

// This file implements the machine construction in the proof of Lemma 11:
// converting a *restrictive* arbiter — one that assumes each certificate
// assignment κ_i passes a certificate-restrictor machine M_i — into a
// *permissive* arbiter that quantifies over unrestricted certificates.
//
// The permissive machine simulates the restrictors and the main arbiter in
// lockstep, records a flag ok_i per restrictor, propagates flag violations
// to neighbors every round, and finally walks through the flags in move
// order: the first violated restriction decides the verdict by the
// polarity of the corresponding quantifier (reject for Eve's moves, accept
// for Adam's), and only if all restrictions hold does the main arbiter's
// verdict count.
//
// Soundness of the early-accept on Adam's moves relies on the restrictors
// being *locally repairable* (Section 6): a violation can always be fixed
// at the violating node without changing other verdicts, so a node unaware
// of a violation reaches a verdict it would also reach against some valid
// certificate. Local repairability is a semantic property of the
// restrictor; it is the caller's obligation, as in the paper.

// Restrictor pairs a certificate-restrictor machine with the index
// (1-based) of the certificate move it constrains.
type Restrictor struct {
	Machine *simulate.Machine
	Move    int
}

// relState is one node of the permissive machine: the tuple-combinator
// state over the restrictors and then the main machine, plus the flag
// vector that rides in every tuple as one extra part.
type relState struct {
	tupleNode
	// flags[i] is '1' while restrictor i's check is believed OK, '0'
	// once it failed here or at a neighbour that reported it.
	flags     string
	haltRound int // round in which all components had halted (0 = not yet)
}

// clearFlag records that restrictor i's check failed.
func (st *relState) clearFlag(i int) {
	if st.flags[i] == '1' {
		b := []byte(st.flags)
		b[i] = '0'
		st.flags = string(b)
	}
}

// Relativize builds the permissive machine M_c of Lemma 11 from the main
// arbiter machine and its certificate restrictors. extraRounds adds flag
// propagation rounds after all component machines halt (the paper's
// construction propagates for the main machine's full round count; most
// machines in this repository run 1–3 rounds, so small values suffice).
func Relativize(main *simulate.Machine, level Level, restrictors []Restrictor, extraRounds int) *simulate.Machine {
	comps := make([]*simulate.Machine, 0, len(restrictors)+1)
	moves := make([]int, 0, len(restrictors))
	for _, r := range restrictors {
		comps = append(comps, r.Machine)
		moves = append(moves, r.Move)
	}
	comps = append(comps, main)
	allOK := strings.Repeat("1", len(restrictors))
	return &simulate.Machine{
		Name: main.Name + "|relativized",
		Init: func(in simulate.Input) any {
			st := &relState{flags: allOK}
			st.init(comps, 1, in)
			return st
		},
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			st := sv.(*relState)
			// Unpack: component messages + flag vector.
			for j, msg := range recv {
				st.split(j, msg)
				// Merge neighbor flags: any '0' taints ours.
				nf := st.parts[len(comps)]
				for i := 0; i < len(st.flags) && i < len(nf); i++ {
					if nf[i] == '0' {
						st.clearFlag(i)
					}
				}
			}
			for i, m := range comps {
				if st.step(i, m, round) && i < len(st.flags) && m.Output(st.comps[i].state) != "1" {
					st.clearFlag(i)
				}
			}
			// Halt only when all components have halted and flags were
			// propagated for extraRounds additional rounds.
			halt := false
			if st.allHalted() {
				if st.haltRound == 0 {
					st.haltRound = round
				}
				if round >= st.haltRound+extraRounds {
					halt = true
				}
			}
			// Pack tuple: components + flag string.
			st.parts[len(comps)] = st.flags
			return st.pack(), halt
		},
		Output: func(sv any) string {
			st := sv.(*relState)
			// Walk the flags in move order; the first violation decides.
			for idx := 0; idx < len(st.flags); idx++ {
				if st.flags[idx] == '1' {
					continue
				}
				if level.ExistentialAt(moves[idx]) {
					return "0" // Eve played an invalid certificate: reject
				}
				return "1" // Adam played an invalid certificate: accept
			}
			return main.Output(st.comps[len(comps)-1].state)
		},
	}
}
