// Command mboxd registers a middlebox with the DPI controller and
// pushes its pattern set (Section 4.1): either parsed from a Snort-rule
// or ClamAV-signature file, or generated synthetically. With -chain it
// also reports a policy chain ending at this middlebox, acting as a
// minimal TSA.
//
// Usage:
//
//	mboxd -id ids-1 -type ids [-rules file.rules | -clamav file.ndb | -synthetic N]
//	      [-stateful] [-readonly] [-stop N] [-inherit other-mbox]
//	      [-on-dpi-loss fail-open|fail-closed] [-chain mbox1,mbox2,...]
//	      [-listen addr] [-debug-addr addr]
//
// With -listen, mboxd stays running as a wire-transport verdict
// consumer: DPI instances connect over batched UDP and push every
// non-empty match report for this middlebox's chains, authenticated by
// controller-issued session tokens.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"dpiservice/internal/controller"
	"dpiservice/internal/ctlproto"
	"dpiservice/internal/patterns"
)

func main() {
	var (
		ctlAddr   = flag.String("controller", "127.0.0.1:9090", "DPI controller address")
		id        = flag.String("id", "", "unique middlebox identifier (required)")
		typ       = flag.String("type", "", "middlebox type; same-type middleboxes share a pattern set")
		rulesFile = flag.String("rules", "", "Snort-format rules file")
		clamFile  = flag.String("clamav", "", "ClamAV .ndb signature file")
		synthetic = flag.Int("synthetic", 0, "generate N synthetic Snort-like patterns instead of a file")
		seed      = flag.Int64("seed", 1, "seed for -synthetic")
		stateful  = flag.Bool("stateful", false, "request cross-packet scan state")
		readonly  = flag.Bool("readonly", false, "results only, no packets (e.g. an IDS)")
		stopAfter = flag.Int("stop", 0, "stopping condition in payload bytes (0 = unlimited)")
		inherit   = flag.String("inherit", "", "inherit the pattern set of this registered middlebox")
		onLoss    = flag.String("on-dpi-loss", "", "degraded mode when DPI results stop arriving: fail-open (pass unscanned) or fail-closed (drop); default: fail-open if -readonly, else fail-closed")
		chain     = flag.String("chain", "", "comma-separated middlebox IDs to report as a policy chain")
		listen    = flag.String("listen", "", "stay running as a wire verdict consumer on this UDP address (empty: register and exit)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics and /healthz on this address (empty disables)")
	)
	flag.Parse()
	if *id == "" {
		fmt.Fprintln(os.Stderr, "mboxd: -id is required")
		os.Exit(2)
	}
	switch *onLoss {
	case "", ctlproto.FailOpen, ctlproto.FailClosed:
	default:
		fmt.Fprintf(os.Stderr, "mboxd: -on-dpi-loss must be %q or %q\n", ctlproto.FailOpen, ctlproto.FailClosed)
		os.Exit(2)
	}

	set, err := loadSet(*id, *rulesFile, *clamFile, *synthetic, *seed)
	if err != nil {
		log.Fatalf("mboxd: %v", err)
	}

	cl, err := controller.Dial(*ctlAddr)
	if err != nil {
		log.Fatalf("mboxd: controller: %v", err)
	}
	defer cl.Close()

	// Every control call is bounded: a wedged controller must fail the
	// daemon loudly, not hang it.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ack, err := cl.RegisterFull(ctx, ctlproto.Register{
		MboxID: *id, Name: *id, Type: *typ,
		Stateful: *stateful, ReadOnly: *readonly, StopAfter: *stopAfter,
		InheritFrom: *inherit, FailMode: *onLoss,
	})
	if err != nil {
		log.Fatalf("mboxd: register: %v", err)
	}
	log.Printf("mboxd %s: registered, pattern set %d", *id, ack.Set)

	if set != nil {
		if defs := controller.PatternDefs(set); len(defs) > 0 {
			if err := cl.AddPatterns(ctx, *id, defs); err != nil {
				log.Fatalf("mboxd: add patterns: %v", err)
			}
			raw, comp := set.RawSize(), 0
			if c, err := set.CompressedSize(); err == nil {
				comp = c
			}
			log.Printf("mboxd %s: pushed %d patterns, %d regexes (%d B raw, %d B compressed)",
				*id, len(set.Patterns), len(set.Regexes), raw, comp)
		}
	}

	if *chain != "" {
		members := strings.Split(*chain, ",")
		defs, err := cl.ReportChains(ctx, [][]string{members})
		if err != nil {
			log.Fatalf("mboxd: chain: %v", err)
		}
		log.Printf("mboxd %s: chain %v assigned tag %d", *id, members, defs[0].Tag)
	}

	if *listen != "" {
		if err := serveVerdicts(*id, *listen, *debugAddr, ack.WireKey); err != nil {
			log.Fatalf("mboxd: %v", err)
		}
	}
}

// loadSet builds the middlebox's pattern set from the selected source.
func loadSet(name, rulesFile, clamFile string, synthetic int, seed int64) (*patterns.Set, error) {
	sources := 0
	for _, on := range []bool{rulesFile != "", clamFile != "", synthetic > 0} {
		if on {
			sources++
		}
	}
	if sources > 1 {
		return nil, fmt.Errorf("choose one of -rules, -clamav, -synthetic")
	}
	switch {
	case rulesFile != "":
		f, err := os.Open(rulesFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		rules, err := patterns.ParseSnortRules(f)
		if err != nil {
			return nil, err
		}
		set := patterns.SetFromSnortRules(name, rules, 4)
		return set, nil
	case clamFile != "":
		f, err := os.Open(clamFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sigs, err := patterns.ParseClamAVSignatures(f)
		if err != nil {
			return nil, err
		}
		return patterns.SetFromClamAVSignatures(name, sigs, 8), nil
	case synthetic > 0:
		return patterns.SnortLike(synthetic, seed), nil
	default:
		return nil, nil
	}
}
