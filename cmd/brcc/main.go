// brcc compiles MC source for either of the paper's two machines and
// prints the resulting RTL listing, mirroring the paper's Figures 3 and 4.
//
// Usage:
//
//	brcc [-machine baseline|brm|both] [-ir] [-O0] [-nohoist] [-noreplace] [-nosched] [-bregs N] file.mc
package main

import (
	"flag"
	"fmt"
	"os"

	"branchreg/internal/driver"
	"branchreg/internal/isa"
	"branchreg/internal/opt"
)

func main() {
	machine := flag.String("machine", "both", "target: baseline, brm, or both")
	showIR := flag.Bool("ir", false, "print the optimized IR instead of machine code")
	hex := flag.Bool("hex", false, "print the linked program with 32-bit encodings")
	o0 := flag.Bool("O0", false, "disable machine-independent optimizations")
	noHoist := flag.Bool("nohoist", false, "BRM: disable hoisting of target calcs")
	noReplace := flag.Bool("noreplace", false, "BRM: disable noop replacement")
	noSched := flag.Bool("nosched", false, "BRM: disable early calc scheduling")
	bregs := flag.Int("bregs", 8, "BRM: number of branch registers (3..8)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: brcc [flags] file.mc")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	opts := driver.DefaultOptions()
	if *o0 {
		opts.Opt = opt.None
	}
	opts.BRM.Hoist = !*noHoist
	opts.BRM.ReplaceNoops = !*noReplace
	opts.BRM.Schedule = !*noSched
	opts.BRM.BranchRegs = *bregs

	if *showIR {
		iu, err := driver.Lower(string(src), opts)
		if err != nil {
			fatal(err)
		}
		for _, f := range iu.Funcs {
			fmt.Println(f)
		}
		return
	}

	emit := func(kind isa.Kind) {
		u, err := driver.Assemble(string(src), kind, opts)
		if err != nil {
			fatal(err)
		}
		p, err := isa.Link(u, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("==== %s machine (%d instructions) ====\n", kind, len(p.Text))
		if *hex {
			// Linked view with encodings: demonstrates that everything
			// fits the 32-bit formats of the paper's Figures 10 and 11.
			for i := range p.Text {
				in := p.Text[i].Instr()
				word, err := isa.Encode(in, kind)
				if err != nil {
					fatal(fmt.Errorf("instruction %d does not encode: %w", i, err))
				}
				fmt.Printf("%08x:  %08x  %s\n", uint32(isa.IndexToAddr(i)), word, in.RTL(kind))
			}
			fmt.Println()
			return
		}
		fmt.Println(u.Listing())
	}
	switch *machine {
	case "baseline":
		emit(isa.Baseline)
	case "brm":
		emit(isa.BranchReg)
	case "both":
		emit(isa.Baseline)
		emit(isa.BranchReg)
	default:
		fatal(fmt.Errorf("unknown machine %q", *machine))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "brcc:", err)
	os.Exit(1)
}
