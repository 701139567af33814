package harness

import (
	"context"
	"fmt"
	"time"

	"redsoc/internal/campaign"
	"redsoc/internal/cellstore"
)

// The plumbing every campaign shares — the grid here, the fault-injection
// campaign in internal/chaos, and through both the service — in one place.
// Options carries it; a campaign with its own options type projects them
// onto Options and calls the same functions.

// CellEvent reports one journal-keyed unit of work to Options.OnCell:
// which unit (Kind + Label), its content-addressed key (empty when no
// journal is armed), and whether the journal served it (Hit) or it was
// simulated. The serve layer streams these to clients and counts per-job
// cache hits with them.
type CellEvent struct {
	// Kind is "sweep-total", "grid-cell" or "chaos-cell".
	Kind  string
	Label string
	Key   cellstore.Key
	// Hit is true when the unit was served from the journal.
	Hit bool
}

// Unit is one journal-keyed unit of campaign work — a sweep total, a grid
// cell or a chaos cell: its name, how to key it, how to compute it, and
// how its outcome is written to and read from the journal.
type Unit[T any] struct {
	// Kind and Label name the unit in its CellEvent, heartbeat and
	// manifest record.
	Kind, Label string
	// Key fingerprints the unit; it is only called with a journal armed.
	Key    func() cellstore.Key
	Run    func() (T, error)
	Encode func(T) ([]byte, error)
	// Decode rebuilds a journaled outcome; an error makes it a miss.
	Decode func([]byte) (T, error)
}

// Step runs one unit as a journaled step: on resume, a journaled outcome
// that decodes is served; otherwise the unit runs and its outcome is
// journaled and logged done. Either way OnCell hears of it. Determinism
// makes the substitution exact: a served unit is indistinguishable from a
// simulated one. Journal write failures (full disk, permissions) never
// fail the unit — its outcome is correct, just not resumable — but the
// store counts them.
func Step[T any](ctx context.Context, opts Options, u Unit[T]) (T, error) {
	var key cellstore.Key
	var v T
	hit := false
	if opts.Journal != nil {
		key = u.Key()
		if opts.Resume {
			// A payload u.Decode refuses (a foreign or stale shape) is a
			// corrupt miss to Load, and the unit runs.
			v, hit = cellstore.Load(opts.Journal, key, u.Decode)
		}
	}
	if hit {
		campaign.Heartbeat(ctx, u.Label+": served from journal")
	} else {
		var err error
		if v, err = u.Run(); err != nil {
			return v, err
		}
		if opts.Journal != nil {
			if data, err := u.Encode(v); err == nil && opts.Journal.Put(key, data) == nil {
				_ = opts.Journal.LogDone(key, u.Label)
			}
		}
	}
	if opts.OnCell != nil {
		opts.OnCell(CellEvent{Kind: u.Kind, Label: u.Label, Key: key, Hit: hit})
	}
	return v, nil
}

// CampaignOptions projects opts onto one campaign phase. The hung-cell
// watchdog is armed whenever OnStall is set, after StallAfter of silence or
// one minute when StallAfter is zero.
func CampaignOptions[T any](opts Options, label func(int) string, onDone func(int, T)) campaign.Options[T] {
	stallAfter := time.Duration(0)
	if opts.OnStall != nil {
		if stallAfter = opts.StallAfter; stallAfter <= 0 {
			stallAfter = time.Minute
		}
	}
	return campaign.Options[T]{
		Workers:    opts.Workers,
		Label:      label,
		OnDone:     onDone,
		Timeout:    opts.CellTimeout,
		Retries:    opts.Retries,
		StallAfter: stallAfter,
		OnStall:    opts.OnStall,
		Stats:      opts.Stats,
	}
}

// CheckShard validates opts.Shard for the campaign package pkg: a sharded run
// requires a journal, because a shard's product is its journaled cells.
func (opts Options) CheckShard(pkg string) error {
	if err := opts.Shard.Validate(); err != nil {
		return err
	}
	if opts.Shard.Enabled() && opts.Journal == nil {
		return fmt.Errorf("%s: shard %s requires a journal — a shard's product is its journaled cells", pkg, opts.Shard)
	}
	return nil
}

// LogCampaign records a sharded campaign phase of n units in the journal
// manifest, naming the shard when the run is one.
func (opts Options) LogCampaign(n int, desc string) {
	if opts.Journal == nil {
		return
	}
	if opts.Shard.Enabled() {
		desc = fmt.Sprintf("%s (shard %s)", desc, opts.Shard)
	}
	_ = opts.Journal.LogCampaign(n, desc)
}
