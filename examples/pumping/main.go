// Pumping walk-through: executes the separation arguments at the bottom of
// the locally polynomial hierarchy (Figure 2 / Section 9.1) against real
// machines — the cycle-gluing indistinguishability of Proposition 24 and
// the certificate-pumping of Proposition 26.
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/search"
)

func main() {
	p24, err := experiments.Proposition24(9, nil, search.Default())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(p24)
	fmt.Println()

	p26, err := experiments.Proposition26(24, 4, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(p26)
	fmt.Println()
	fmt.Println("Proposition 24: no LP machine can decide 2-colorability;")
	fmt.Println("Proposition 26: no bounded-certificate NLP verifier survives pumping.")
}
