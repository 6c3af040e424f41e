// Package prio implements PRISM's priority *policy* layer (§IV-A of the
// paper): a runtime-configurable database of high-priority flows matched
// by IP address and port, plus the global mode switch. The paper exposes
// this through procfs; here it is a concurrency-safe API with a textual
// rule syntax (ParseRule) that mirrors the procfs writes — a scenario
// file's control: list (internal/scenario) schedules them at run time.
package prio

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"prism/internal/pkt"
)

// Mode selects how high-priority packets traverse the pipeline (§III-B).
type Mode int

// Modes. Vanilla disables PRISM entirely (baseline kernel behaviour).
const (
	ModeVanilla Mode = iota + 1
	// ModeBatch is PRISM-batch: batch-level preemption via head insertion
	// and dual queues.
	ModeBatch
	// ModeSync is PRISM-sync: run-to-completion processing of high-priority
	// packets through all stages within one softirq.
	ModeSync
)

// String names the mode as the experiment tables do.
func (m Mode) String() string {
	switch m {
	case ModeVanilla:
		return "vanilla"
	case ModeBatch:
		return "prism-batch"
	case ModeSync:
		return "prism-sync"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Rule marks flows as high priority. A zero IP matches any address; a zero
// port matches any port. Matching is applied to both the source and the
// destination endpoint of a packet, since the user configures services
// ("memcached on 10.0.0.2:11211"), not directions.
//
// Level generalizes the paper's binary priority to multiple classes
// (§VII-3): a zero Level means 1 (the paper's single high class); higher
// levels preempt lower ones within every high-priority queue.
type Rule struct {
	IP    pkt.IPv4
	Port  uint16
	Level int
}

// EffectiveLevel returns the rule's level with the zero-value default.
func (r Rule) EffectiveLevel() int {
	if r.Level <= 0 {
		return 1
	}
	return r.Level
}

// String renders the rule as "ip:port" (with "*" wildcards), appending
// "@level" for levels above 1.
func (r Rule) String() string {
	ip := "*"
	if r.IP != (pkt.IPv4{}) {
		ip = r.IP.String()
	}
	port := "*"
	if r.Port != 0 {
		port = fmt.Sprintf("%d", r.Port)
	}
	s := ip + ":" + port
	if r.EffectiveLevel() > 1 {
		s += fmt.Sprintf("@%d", r.EffectiveLevel())
	}
	return s
}

func (r Rule) matchEndpoint(ip pkt.IPv4, port uint16) bool {
	if r.IP != (pkt.IPv4{}) && r.IP != ip {
		return false
	}
	if r.Port != 0 && r.Port != port {
		return false
	}
	return true
}

// DB is the global high-priority flow database. It is safe for concurrent
// use: the simulation reads it from the NIC classification path while
// control-plane code (scenario control ops, tests, examples) mutates it.
//
// Reads go through an immutable snapshot published with an atomic pointer,
// so the per-packet classification path costs one atomic load and a scan
// of a small slice — no lock acquisition and no map iteration. Writers
// serialize on a mutex, rebuild the snapshot, and publish it.
type DB struct {
	mu    sync.Mutex // serializes writers
	rules map[Rule]struct{}
	snap  atomic.Pointer[dbSnapshot]
}

// dbSnapshot is the immutable read-side view: the mode plus the rule set
// in the deterministic sorted order Rules reports.
type dbSnapshot struct {
	mode  Mode
	rules []Rule
}

// NewDB returns an empty database in ModeVanilla.
func NewDB() *DB {
	db := &DB{rules: make(map[Rule]struct{})}
	db.snap.Store(&dbSnapshot{mode: ModeVanilla})
	return db
}

// publish rebuilds the snapshot from the rule map. Callers hold db.mu.
func (db *DB) publish(mode Mode) {
	rules := make([]Rule, 0, len(db.rules))
	for r := range db.rules {
		rules = append(rules, r)
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].String() < rules[j].String() })
	db.snap.Store(&dbSnapshot{mode: mode, rules: rules})
}

// Mode returns the current operation mode.
func (db *DB) Mode() Mode { return db.snap.Load().mode }

// SetMode switches the operation mode at runtime, like writing the paper's
// global binary proc variable.
func (db *DB) SetMode(m Mode) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.publish(m)
}

// Add inserts a rule. Adding an existing rule is a no-op.
func (db *DB) Add(r Rule) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.rules[r] = struct{}{}
	db.publish(db.snap.Load().mode)
}

// Remove deletes a rule, reporting whether it existed.
func (db *DB) Remove(r Rule) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, ok := db.rules[r]
	delete(db.rules, r)
	db.publish(db.snap.Load().mode)
	return ok
}

// Clear removes all rules.
func (db *DB) Clear() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.rules = make(map[Rule]struct{})
	db.publish(db.snap.Load().mode)
}

// Len returns the number of rules.
func (db *DB) Len() int { return len(db.snap.Load().rules) }

// Rules returns a sorted copy of the rule set.
func (db *DB) Rules() []Rule {
	snap := db.snap.Load()
	out := make([]Rule, len(snap.rules))
	copy(out, snap.rules)
	return out
}

// Classify reports whether a flow is high priority: some rule matches
// either endpoint. This is the check performed once per packet at SKB
// allocation in the stage-1 poll (§IV-A).
func (db *DB) Classify(k pkt.FlowKey) bool { return db.ClassifyLevel(k) > 0 }

// ClassifyLevel returns the highest level among matching rules, or 0 for
// best effort.
func (db *DB) ClassifyLevel(k pkt.FlowKey) int {
	best := 0
	for _, r := range db.snap.Load().rules {
		if r.matchEndpoint(k.SrcIP, k.SrcPort) || r.matchEndpoint(k.DstIP, k.DstPort) {
			if l := r.EffectiveLevel(); l > best {
				best = l
			}
		}
	}
	return best
}

// ParseRule parses "ip:port[@level]" with "*" wildcards, e.g.
// "10.0.0.2:11211", "*:11211", "10.0.0.2:*", "*:53@3".
func ParseRule(s string) (Rule, error) {
	var lvl int
	if at := strings.LastIndexByte(s, '@'); at >= 0 {
		var err error
		if _, err = fmt.Sscanf(s[at+1:], "%d", &lvl); err != nil {
			return Rule{}, fmt.Errorf("prio: bad level in rule %q: %w", s, err)
		}
		if lvl < 1 || lvl > 8 {
			return Rule{}, fmt.Errorf("prio: level out of range in rule %q", s)
		}
		s = s[:at]
	}
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return Rule{}, fmt.Errorf("prio: rule %q missing ':'", s)
	}
	ipStr, portStr := s[:i], s[i+1:]
	r := Rule{Level: lvl}
	if ipStr != "*" {
		var a, b, c, d int
		if _, err := fmt.Sscanf(ipStr, "%d.%d.%d.%d", &a, &b, &c, &d); err != nil {
			return Rule{}, fmt.Errorf("prio: bad IP in rule %q: %w", s, err)
		}
		if a|b|c|d < 0 || a > 255 || b > 255 || c > 255 || d > 255 {
			return Rule{}, fmt.Errorf("prio: IP octet out of range in rule %q", s)
		}
		r.IP = pkt.Addr(byte(a), byte(b), byte(c), byte(d))
	}
	if portStr != "*" {
		var p int
		if _, err := fmt.Sscanf(portStr, "%d", &p); err != nil {
			return Rule{}, fmt.Errorf("prio: bad port in rule %q: %w", s, err)
		}
		if p <= 0 || p > 65535 {
			return Rule{}, fmt.Errorf("prio: port out of range in rule %q", s)
		}
		r.Port = uint16(p)
	}
	return r, nil
}
