// Package campaigncli is the campaign flag block the batch campaign CLIs
// (redsoc-bench and redsoc-chaos) share: the -journal, -resume, -shard and
// -cell-timeout flags, their validation, the SIGINT context, and the
// journal and interrupt lines the CLIs print (CI parses the journal line).
package campaigncli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"redsoc/internal/campaign"
	"redsoc/internal/cellstore"
	"redsoc/internal/harness"
)

// Flags holds the campaign flags and what Open makes of them.
type Flags struct {
	// Dir is the -journal directory ("" when no journal is armed).
	Dir         string
	resume      bool
	shard       string
	cellTimeout time.Duration

	// Journal is the opened -journal store (nil without -journal) and Shard
	// the parsed -shard.
	Journal *cellstore.Store
	Shard   campaign.Shard
}

// Register defines the campaign flags on the default flag set; noun names
// what -shard splits ("grid" or "campaign").
func Register(noun string) *Flags {
	f := &Flags{}
	flag.StringVar(&f.Dir, "journal", "", "crash-safe cell journal directory (content-addressed; arms -resume)")
	flag.BoolVar(&f.resume, "resume", false, "serve journaled cells instead of re-simulating (requires -journal)")
	flag.StringVar(&f.shard, "shard", "", "compute only shard i/n of the "+noun+" into the shared -journal (merge with -resume)")
	flag.DurationVar(&f.cellTimeout, "cell-timeout", 0, "per-cell deadline, e.g. 90s (0 = none)")
	return f
}

// Open validates the parsed flags and opens the journal; any problem is
// fatal.
func (f *Flags) Open() {
	var err error
	if f.Shard, err = campaign.ParseShard(f.shard); err != nil {
		log.Fatal(err)
	}
	if f.resume && f.Dir == "" {
		log.Fatal("-resume requires -journal DIR")
	}
	if f.Shard.Enabled() && f.Dir == "" {
		log.Fatal("-shard requires -journal DIR — the shared journal is the shard's product")
	}
	if f.Dir != "" {
		if f.Journal, err = cellstore.Open(f.Dir); err != nil {
			log.Fatal(err)
		}
	}
}

// Options returns the campaign plumbing the flags configure; the caller
// adds its workload and worker count.
func (f *Flags) Options() harness.Options {
	return harness.Options{
		Journal: f.Journal, Resume: f.resume, Shard: f.Shard,
		CellTimeout: f.cellTimeout,
	}
}

// Context is cancelled by SIGINT: in-flight cells stop at their
// simulation's next context poll, and everything already journaled stays.
func Context() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt)
}

// Close flushes the journal shut, if one is open.
func (f *Flags) Close() {
	if f.Journal != nil {
		f.Journal.Close()
	}
}

// Fail ends a failed campaign: the journal line, and for an interrupted
// one the count of cells the journal kept and how to resume, then err.
func (f *Flags) Fail(err error) {
	f.Done()
	var cancelled *campaign.CancelledError
	if errors.As(err, &cancelled) && f.Journal != nil {
		f.Journal.Close()
		if n, derr := cellstore.DoneCount(f.Dir); derr == nil {
			log.Printf("interrupted; journal %s holds %d completed cells — rerun with -journal %s -resume",
				f.Dir, n, f.Dir)
		}
	}
	log.Fatal(err)
}

// Done prints the journal line whenever a journal is armed — on success,
// error and interrupt alike, hits or no hits — so CI extraction of
// "journal: N hits" never silently matches nothing.
func (f *Flags) Done() {
	if f.Journal != nil {
		js := f.Journal.Stats()
		fmt.Printf("journal: %d hits, %d misses, %d writes, %d corrupt (%s)\n",
			js.Hits, js.Misses, js.Writes, js.Corrupt, f.Dir)
	}
}
