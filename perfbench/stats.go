package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/contractgen"
)

// minBeyond is how many samples must lie beyond a reported percentile.
// Fewer, and the percentile is one or two unlucky samples, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1) and
// fails when fewer than minBeyond samples lie above it. Infinite samples
// (failed contracts) count as missing every limit.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%.0f of no samples", 100*p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; p < 1 && beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%.0f over %d samples has only %d beyond it (need %d)", 100*p, n, beyond, minBeyond)
	}
	return s[idx], nil
}

// median is the middle value of xs (mean of the two middle ones for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// verdicts is one contract's per-class outcome, indexed like
// contractgen.Classes.
type verdicts [8]bool

func init() {
	if len(contractgen.Classes) != len(verdicts{}) {
		panic("perfbench: verdicts array does not match contractgen.Classes")
	}
}

// digestLine renders one contract's findings exactly as the campaign
// engine's FindingsDigest does, so digests computed here and by the
// daemon are comparable line for line.
func digestLine(id int, name string, v verdicts, err error) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "job=%d name=%q", id, name)
	if err != nil {
		fmt.Fprintf(&sb, " err=%v", err)
		return sb.String()
	}
	for i, class := range contractgen.Classes {
		fmt.Fprintf(&sb, " %s=%v", class, v[i])
	}
	return sb.String()
}

// findingsDigest joins digest lines in the engine's canonical (sorted)
// order.
func findingsDigest(lines []string) string {
	s := append([]string(nil), lines...)
	sort.Strings(s)
	return strings.Join(s, "\n")
}

// hash is the short form of a canonical digest, as digests.json pins it.
func hash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// parseDigestLine recovers a contract's verdicts from one FindingsDigest
// line (the daemon reports findings only in that form).
func parseDigestLine(line string) (id int, v verdicts, failed bool, err error) {
	if _, err := fmt.Sscanf(line, "job=%d", &id); err != nil {
		return 0, v, false, fmt.Errorf("digest line %q: %w", line, err)
	}
	if strings.Contains(line, " err=") {
		return id, v, true, nil
	}
	for i, class := range contractgen.Classes {
		switch {
		case strings.Contains(line, " "+class.String()+"=true"):
			v[i] = true
		case !strings.Contains(line, " "+class.String()+"=false"):
			return 0, v, false, fmt.Errorf("digest line %q lacks class %s", line, class)
		}
	}
	return id, v, false, nil
}

// score counts verdicts against ground truth over every labelled class.
type score struct{ tp, fp, fn int }

// label is a contract's ground truth: truth[i] holds for the classes
// marked in known. Single-class benchmark samples label only their class.
type label struct{ truth, known verdicts }

func (s *score) add(got verdicts, l label) {
	for i := range got {
		switch {
		case !l.known[i]:
		case got[i] && l.truth[i]:
			s.tp++
		case got[i]:
			s.fp++
		case l.truth[i]:
			s.fn++
		}
	}
}

func (s score) recall() float64    { return ratio(s.tp, s.tp+s.fn) }
func (s score) precision() float64 { return ratio(s.tp, s.tp+s.fp) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// wildLabel converts a wild contract's ground truth, which covers every
// class: a class absent from the map has no feature, so it is safe.
func wildLabel(m map[contractgen.Class]bool) label {
	var l label
	for i, class := range contractgen.Classes {
		l.truth[i], l.known[i] = m[class], true
	}
	return l
}
