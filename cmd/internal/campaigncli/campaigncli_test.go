package campaigncli

import (
	"flag"
	"io"
	"os"
	"testing"
	"time"

	"redsoc/internal/campaign"
)

// stdout captures what fn prints to os.Stdout.
func stdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	fn()
	os.Stdout = saved
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestFlags pins the shared campaign flag block: the flag names and
// defaults both CLIs document, their projection onto the campaign options,
// and the journal line CI parses.
func TestFlags(t *testing.T) {
	saved := flag.CommandLine
	defer func() { flag.CommandLine = saved }()
	flag.CommandLine = flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register("grid")
	for name, def := range map[string]string{
		"journal": "", "resume": "false", "shard": "",
		"cell-timeout": "0s",
	} {
		fl := flag.CommandLine.Lookup(name)
		if fl == nil || fl.DefValue != def {
			t.Fatalf("-%s: flag %+v, want default %q", name, fl, def)
		}
	}
	dir := t.TempDir()
	if err := flag.CommandLine.Parse([]string{"-journal", dir, "-resume", "-shard", "1/3",
		"-cell-timeout", "90s"}); err != nil {
		t.Fatal(err)
	}
	f.Open()
	defer f.Close()

	o := f.Options()
	if o.Journal == nil || o.Journal != f.Journal || !o.Resume || o.Shard != (campaign.Shard{Index: 1, Count: 3}) ||
		o.CellTimeout != 90*time.Second {
		t.Fatalf("options do not carry the flags: %+v", o)
	}

	want := "journal: 0 hits, 0 misses, 0 writes, 0 corrupt (" + dir + ")\n"
	if got := stdout(t, f.Done); got != want {
		t.Fatalf("Done printed %q, want %q", got, want)
	}
}
