// Package fault is a fault-injection registry for chaos testing the
// serving stack. Production code guards every injection site with a
// single atomic load (Active), so a build with no faults armed pays one
// predictable branch per site and allocates nothing — the steady-state
// search path stays 0 allocs/op with the package linked in.
//
// A site is a named point in the code (SiteWALFsync, SiteShardSearch,
// ...) that consults the registry when armed. An Injection arms one
// site with an error to return, a latency to add, or a panic to raise —
// optionally filtered to one site argument (e.g. a single shard),
// delayed past the first N evaluations, probabilistic under a seeded
// RNG (deterministic across runs), and bounded to a firing limit.
//
// Faults are armed in-process with Inject (tests) or from a spec string
// with ParseSpec (the annserve -faults flag), e.g.:
//
//	wal.fsync:delay=5ms
//	shard.search:err=stuck,arg=1;wal.append:err=disk,p=0.5,limit=3
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// AnyArg matches every site argument.
const AnyArg = -1

// Injection arms one site. The zero value of each field is inert: only
// set fields take effect. Evaluation order per hit: After gate, Limit
// gate, probability draw, then Delay (sleep), then Panic, then Err.
type Injection struct {
	// Site is the injection point to arm.
	Site Site
	// Arg filters the hit to one site argument (shard number); AnyArg
	// (and, for convenience, 0 on argument-less sites) matches all. Use
	// AnyArg explicitly when arming shard sites for every shard.
	Arg int
	// Err, when non-nil, is returned from Check.
	Err error
	// Delay, when positive, is slept before returning (after the
	// probability draw, so p=0.1 delays one hit in ten).
	Delay time.Duration
	// Panic, when non-empty, raises panic(Panic) — exercising the
	// caller's panic-isolation path.
	Panic string
	// P is the firing probability per eligible hit; 0 means 1.0 (always).
	// Draws come from the registry's seeded RNG, so a fixed seed replays
	// the same firing pattern.
	P float64
	// After skips the first After eligible hits before firing begins.
	After int
	// Limit caps how many times the injection fires; 0 is unlimited.
	Limit int

	hits  int // eligible evaluations seen (After gate)
	fired int // times actually fired (Limit gate)
}

var (
	active atomic.Bool // true while at least one injection is armed

	mu   sync.Mutex
	arm  map[Site][]*Injection
	hits map[Site]int64
	rng  = rand.New(rand.NewSource(1))
)

// Active reports whether any injection is armed. It is the only check a
// site pays when the registry is empty: one atomic load, no allocation.
func Active() bool { return active.Load() }

// Seed reseeds the registry's RNG, making probabilistic injections
// deterministic from this point.
func Seed(seed int64) {
	mu.Lock()
	defer mu.Unlock()
	rng = rand.New(rand.NewSource(seed))
}

// Inject arms one injection and returns a function that disarms it.
func Inject(inj Injection) (remove func()) {
	if inj.Site == "" {
		panic("fault: injection needs a site")
	}
	p := &inj
	mu.Lock()
	if arm == nil {
		arm = make(map[Site][]*Injection)
		hits = make(map[Site]int64)
	}
	arm[inj.Site] = append(arm[inj.Site], p)
	active.Store(true)
	mu.Unlock()
	return func() {
		mu.Lock()
		defer mu.Unlock()
		list := arm[p.Site]
		for i, q := range list {
			if q == p {
				arm[p.Site] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(arm[p.Site]) == 0 {
			delete(arm, p.Site)
		}
		active.Store(len(arm) > 0)
	}
}

// Reset disarms every injection and clears the hit counters.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	arm = nil
	hits = nil
	active.Store(false)
}

// Hits returns how many times a site fired (injections actually applied,
// not mere evaluations).
func Hits(site Site) int64 {
	mu.Lock()
	defer mu.Unlock()
	return hits[site]
}

// Check evaluates a site with no argument filter. See CheckArg.
func Check(site Site) error { return CheckArg(site, AnyArg) }

// CheckArg evaluates every injection armed on site whose Arg matches
// arg: delays are slept, a panic is raised, and the first injected
// error is returned. Callers guard it with Active() so the disabled
// path stays a single atomic load.
func CheckArg(site Site, arg int) error {
	mu.Lock()
	list := arm[site]
	if len(list) == 0 {
		mu.Unlock()
		return nil
	}
	var delay time.Duration
	var panicMsg string
	var err error
	fired := false
	for _, inj := range list {
		if inj.Arg != AnyArg && arg != AnyArg && inj.Arg != arg {
			continue
		}
		inj.hits++
		if inj.hits <= inj.After {
			continue
		}
		if inj.Limit > 0 && inj.fired >= inj.Limit {
			continue
		}
		if inj.P > 0 && inj.P < 1 && rng.Float64() >= inj.P {
			continue
		}
		inj.fired++
		fired = true
		if inj.Delay > delay {
			delay = inj.Delay
		}
		if panicMsg == "" {
			panicMsg = inj.Panic
		}
		if err == nil {
			err = inj.Err
		}
	}
	if fired {
		hits[site]++
	}
	mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if panicMsg != "" {
		panic("fault: injected panic at " + string(site) + ": " + panicMsg)
	}
	return err
}

// ParseSpec arms injections from a spec string: semicolon-separated
// entries of the form
//
//	<site>:<field>=<value>[,<field>=<value>...]
//
// with fields err (message), delay (duration), panic (message), p
// (probability), arg, after, limit, and seed (reseeds the RNG; site
// part ignored). The site must be one of the registered sites in
// sites.go — an unknown site is a parse error naming the known sites,
// so a typo fails at flag-parse time instead of arming a site nothing
// consults. An empty spec arms nothing.
func ParseSpec(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		site, rest, ok := strings.Cut(entry, ":")
		if !ok {
			return fmt.Errorf("fault: spec entry %q lacks a ':'", entry)
		}
		inj := Injection{Site: Site(strings.TrimSpace(site)), Arg: AnyArg}
		if !KnownSite(inj.Site) {
			return fmt.Errorf("fault: unknown site %q (known sites: %s)", inj.Site, siteList())
		}
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return fmt.Errorf("fault: spec field %q lacks an '='", kv)
			}
			var err error
			switch k {
			case "err":
				inj.Err = errors.New("fault: injected: " + v)
			case "delay":
				inj.Delay, err = time.ParseDuration(v)
			case "panic":
				inj.Panic = v
			case "p":
				inj.P, err = strconv.ParseFloat(v, 64)
			case "arg":
				inj.Arg, err = strconv.Atoi(v)
			case "after":
				inj.After, err = strconv.Atoi(v)
			case "limit":
				inj.Limit, err = strconv.Atoi(v)
			case "seed":
				var s int64
				s, err = strconv.ParseInt(v, 10, 64)
				if err == nil {
					Seed(s)
				}
				continue
			default:
				return fmt.Errorf("fault: unknown spec field %q", k)
			}
			if err != nil {
				return fmt.Errorf("fault: spec field %q: %w", kv, err)
			}
		}
		if inj.Err == nil && inj.Delay == 0 && inj.Panic == "" {
			return fmt.Errorf("fault: spec entry %q injects nothing (need err, delay or panic)", entry)
		}
		Inject(inj)
	}
	return nil
}
