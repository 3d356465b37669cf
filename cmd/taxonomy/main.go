// Command taxonomy prints the Table 1 host-interface taxonomy: the
// data-touching operations each combination of API semantics, checksum
// placement, and adaptor architecture requires on transmit, with its
// classification.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
	"repro/internal/taxonomy"
)

func main() {
	audit := flag.Bool("audit", false, "verify the derived copy counts against a measured data-touch ledger")
	flag.Parse()
	fmt.Print(taxonomy.Format())
	fmt.Println()
	fmt.Println("Classes:")
	counts := map[taxonomy.Class]int{}
	for _, c := range taxonomy.All() {
		counts[c.Class]++
	}
	for _, cl := range []taxonomy.Class{taxonomy.SingleCopy, taxonomy.CopyPlusRead, taxonomy.TwoCopy} {
		fmt.Printf("  %-12v %d configurations\n", cl, counts[cl])
	}
	fmt.Println()
	cab := taxonomy.Derive(taxonomy.CAB)
	fmt.Printf("The CAB (copy API, header checksum, outboard buffering, DMA+csum): %v → %v\n",
		cab.Ops, cab.Class)
	fmt.Println("\nReceive path (mirror of Table 1; checksum placement is immaterial on receive):")
	fmt.Print(taxonomy.FormatReceive())

	if *audit {
		// Check the derivation against reality: run both stack variants
		// with the data-touch ledger on and verify the measured per-byte
		// touch counts land in the predicted cells.
		fmt.Println("\nMeasured audit (data-touch ledger, 1 MB transfer):")
		rep, err := exp.RunTouches(1)
		fmt.Print(rep.Format())
		if err != nil {
			fmt.Fprintf(os.Stderr, "taxonomy: %v\n", err)
			os.Exit(1)
		}
	}
}
