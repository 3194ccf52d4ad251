// Ordering: the paper's Section-4 interaction experiment as a runnable
// example. Six application orders of loop fusion (FUS), loop interchange
// (INX) and loop unrolling (LUR) run over the interaction program; the
// orders genuinely enable and disable one another and produce different
// optimized programs — "there is not a right order of application".
//
//	go run ./examples/ordering
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
	"repro/internal/workloads"
)

func main() {
	w, err := workloads.Get("interact")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("program:")
	fmt.Print(w.Source)
	fmt.Println()

	orders := [][]string{
		{"FUS", "INX", "LUR"},
		{"FUS", "LUR", "INX"},
		{"INX", "FUS", "LUR"},
		{"INX", "LUR", "FUS"},
		{"LUR", "FUS", "INX"},
		{"LUR", "INX", "FUS"},
	}
	// Group the orderings by the program they produce, listing the groups
	// in order of first appearance so the output is reproducible.
	group := map[string]int{}
	var groups [][]string
	for _, order := range orders {
		p, counts, err := genesis.Optimize(w.Source, order...)
		if err != nil {
			log.Fatal(err)
		}
		key := strings.Join(order, "→")
		fmt.Printf("%-13s FUS=%d INX=%d LUR=%d  (%d statements)\n",
			key, counts["FUS"], counts["INX"], counts["LUR"], p.Len())
		i, ok := group[p.String()]
		if !ok {
			i = len(groups)
			group[p.String()] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], key)
	}
	fmt.Printf("\n%d orderings produced %d distinct programs:\n", len(orders), len(groups))
	for _, names := range groups {
		fmt.Println("  ", strings.Join(names, ", "))
	}
}
