// Squares three ways: Protocol 1 (probing turns), Protocol 2 (turning
// marks, Figure 2) and the terminating Square-Knowing-n of Lemma 2 — all
// three as jobs against the protocol registry, the first two through the
// "stabilize" spec and the third with a uniform budget override.
package main

import (
	"context"
	"fmt"
	"log"

	"shapesol"
)

// stabilize runs one Section 4 rule table and returns its outcome.
func stabilize(table string, n int, seed int64) shapesol.StabilizeOutcome {
	res, err := shapesol.Run(context.Background(), shapesol.Job{
		Protocol: "stabilize",
		Params:   shapesol.Params{Table: table, N: n},
		Seed:     seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.Payload.(shapesol.StabilizeOutcome)
}

func main() {
	p1 := stabilize("square", 16, 4)
	fmt.Println("Protocol 1 on 16 nodes:")
	fmt.Print(shapesol.Render(p1.Shape))

	p2 := stabilize("square2", 21, 4) // 4x4 + marks + start node
	fmt.Println("\nProtocol 2 on 21 nodes (4x4 core plus next phase's turning marks):")
	fmt.Print(shapesol.Render(p2.Shape))

	// The terminating construction, with the default 300M step budget
	// overridden the same way any registry job can be.
	res, err := shapesol.Run(context.Background(), shapesol.Job{
		Protocol: "square-knowing-n",
		Params:   shapesol.Params{N: 16, D: 4},
		Seed:     4,
		MaxSteps: 100_000_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	out := res.Payload.(shapesol.SquareOutcome)
	fmt.Printf("\nSquare-Knowing-n, d=4 on exactly 16 nodes: halted=%v exact square=%v (steps %d)\n",
		out.Halted, out.Square, out.Steps)
}
