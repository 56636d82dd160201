// strlen reproduces the paper's running example (Figures 2-4): the C
// strlen function compiled for the conventional RISC with delayed branches
// and for the branch-register machine, shown as RTL listings. Compare the
// delay-slot noop in the baseline loop against the hoisted target
// calculations in the preheader on the branch-register machine.
package main

import (
	"context"
	"fmt"
	"log"

	"branchreg/internal/driver"
	"branchreg/internal/isa"
)

// Figure 2: the C function.
const source = `
int strlen(char *s) {
    int n = 0;
    if (s)
        for (; *s; s++)
            n++;
    return n;
}

char text[20] = "branch registers";

int main(void) {
    int len = strlen(text);
    putchar('0' + len / 10);
    putchar('0' + len % 10);
    putchar('\n');
    return 0;
}
`

func main() {
	opts := driver.DefaultOptions()

	fmt.Println("Figure 2: the C function")
	fmt.Print(source)
	fmt.Println()

	base, err := driver.Assemble(source, isa.Baseline, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 3: RTLs for the baseline machine (delayed branches)")
	fmt.Println(listing(base, "strlen"))

	brm, err := driver.Assemble(source, isa.BranchReg, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 4: RTLs for the branch-register machine")
	fmt.Println(listing(brm, "strlen"))

	for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
		res, err := driver.Exec(context.Background(), driver.Request{Source: source, Kind: kind, Input: "", Options: opts})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: output %q, %d instructions, %d transfers, %d noops\n",
			kind, res.Output, res.Stats.Instructions, res.Stats.Transfers(), res.Stats.Noops)
	}
}

func listing(u *isa.Unit, fn string) string {
	for _, f := range u.Funcs {
		if f.Name == fn {
			return f.Listing()
		}
	}
	return "(not found)"
}
