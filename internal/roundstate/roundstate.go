// Package roundstate holds the round numbers a role has consumed and the
// one guard over them: Counters.Advance refuses a round that is not above
// everything consumed under its name and commits an accepted one, under
// one lock. Backed by a file (OpenCounters) the numbers survive a crash,
// so a restarted process rejoins the chain with its replay protection
// intact instead of falling back to AllowRoundReuse; the zero Counters
// runs the same guard in memory only.
//
// The mixnet's safety against round replay (a server must never process
// the same round twice with fresh noise — docs/THREAT_MODEL.md) rests on
// that strictly-increasing check; kept only in memory, any crash resets
// it to zero. This package is the smallest durable store for it: one
// file, opened once and held, updated write-ahead (the round number is
// committed to disk BEFORE the round's work runs, so a crash mid-round
// can only lose a round, never replay one) by one in-place write and one
// fsync per commit.
//
// The file is exactly 1024 bytes: two 512-byte slots, slot 0 at offset 0
// and slot 1 at offset 512, each laid out as
//
//	offset  size  field
//	0       4     magic "VZRS"
//	4       8     sequence, big-endian: 1 for the first commit, +1 per
//	              commit; odd sequences live in slot 0, even ones in slot 1
//	12      4     payload length n, big-endian, at most 492
//	16      n     payload, text: one "<name> <decimal>\n" line per
//	              counter, sorted by name
//	16+n    4     CRC-32 (IEEE) of bytes 0 … 16+n, big-endian
//	20+n    …     zeros up to 512, not interpreted
//
// A commit overwrites the slot holding the OLDER sequence, so a torn
// write can damage only that slot: its checksum fails and the other slot
// still holds the previous commit — the right answer, because the torn
// commit never returned. Open takes the checksummed slot with the highest
// sequence, treats what a crash during creation leaves (an empty or
// all-zero file of at most 1024 bytes) as a fresh store, and refuses
// everything else: silently resetting a counter is exactly the replay
// window the store exists to close. The exclusive advisory flock on the
// file makes a second live process's Open fail loudly (e.g. a supervisor
// starting the replacement server before the old one exits) instead of
// both accepting the same round.
//
// There is one payload shape, independent named counters: a chain server
// and the coordinator each track the conversation and dialing protocols
// separately, and a dead-drop shard, which runs only the conversation
// exchange, keeps the one ConvoCounter. (Before PR 24 a shard's payload
// was a bare "<decimal>\n"; such a file is refused like any corrupt one.)
package roundstate

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// ConvoCounter names the conversation-protocol round counter inside a
// Counters file — the name mixnet servers and the coordinator use for
// wire.ProtoConvo rounds.
const ConvoCounter = "convo"

// DialCounter names the dialing-protocol round counter inside a
// Counters file — the name mixnet servers and the coordinator use for
// wire.ProtoDial rounds.
const DialCounter = "dial"

// The slot geometry of the package comment.
const (
	slotSize   = 512
	fileSize   = 2 * slotSize
	slotHeader = 16
	maxPayload = slotSize - slotHeader - 4
	slotMagic  = "VZRS"
)

// slotOf is the slot a commit with sequence seq is written to.
func slotOf(seq uint64) int { return int(seq+1) & 1 }

// decodeSlot returns the sequence and payload of a slot whose magic,
// length and checksum all hold.
func decodeSlot(b []byte) (seq uint64, payload []byte, ok bool) {
	n := binary.BigEndian.Uint32(b[12:])
	if string(b[:4]) != slotMagic || n > maxPayload {
		return 0, nil, false
	}
	end := slotHeader + int(n)
	ok = crc32.ChecksumIEEE(b[:end]) == binary.BigEndian.Uint32(b[end:])
	return binary.BigEndian.Uint64(b[4:]), b[slotHeader:end], ok
}

// slotFile is the held-open, exclusively locked two-slot file under a
// Counters, whose methods serialize on mu.
type slotFile struct {
	path string      // "" under a memory-only Counters, which has no file
	info os.FileInfo // the open file's identity: commit checks path still names it

	mu  sync.Mutex
	f   *os.File       // nil once closed
	seq uint64         // the newest valid slot's sequence, 0 in a fresh file
	buf [slotSize]byte // the next slot's image, encoded in place
}

// open opens path, creating it if need be, takes the advisory lock and
// returns the newest valid slot's payload; sf.seq stays 0 for a fresh
// store. On an error the caller closes sf.
func (sf *slotFile) open(path string) (payload []byte, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("roundstate: %w", err)
	}
	sf.path, sf.f = path, f
	if err := lockFile(f); err != nil {
		return nil, fmt.Errorf("roundstate: %s is held by another live process (flock: %w) — two servers must never share a round counter", path, err)
	}
	if sf.info, err = f.Stat(); err != nil {
		return nil, fmt.Errorf("roundstate: %w", err)
	}
	data, err := io.ReadAll(io.LimitReader(f, fileSize+1))
	if err != nil {
		return nil, fmt.Errorf("roundstate: reading %s: %w", path, err)
	}
	if len(data) <= fileSize && len(bytes.Trim(data, "\x00")) == 0 {
		return nil, sf.create()
	}
	for i := 0; i < 2 && len(data) == fileSize; i++ {
		seq, p, ok := decodeSlot(data[i*slotSize:][:slotSize])
		if !ok {
			continue // torn, damaged or never written: the other slot decides
		}
		if seq == 0 || seq == ^uint64(0) || slotOf(seq) != i {
			return nil, fmt.Errorf("roundstate: %s is corrupt (slot %d carries sequence %d, which no commit writes there): refusing to reset the replay counter", path, i, seq)
		}
		if seq > sf.seq {
			sf.seq, payload = seq, p
		}
	}
	if sf.seq == 0 {
		return nil, fmt.Errorf("roundstate: %s is corrupt or predates the two-slot format (%d bytes, no %d-byte slot with a valid checksum): refusing to reset the replay counter", path, len(data), slotSize)
	}
	return payload, nil
}

// create zeroes both slots and makes the file and its directory entry
// durable — the one time the directory is opened or synced.
func (sf *slotFile) create() error {
	if _, err := sf.f.WriteAt(make([]byte, fileSize), 0); err != nil {
		return fmt.Errorf("roundstate: %w", err)
	}
	if err := sf.f.Sync(); err != nil {
		return fmt.Errorf("roundstate: %w", err)
	}
	dir, err := os.Open(filepath.Dir(sf.path))
	if err == nil {
		err = dir.Sync()
		dir.Close()
	}
	if err != nil {
		return fmt.Errorf("roundstate: syncing directory of %s: %w", sf.path, err)
	}
	return nil
}

// commit durably replaces the older slot with payload (which a caller
// builds in buf[slotHeader:slotHeader] to allocate nothing): one WriteAt
// and one Sync on the held descriptor, both of which must succeed or
// sf.seq stays put. The caller holds mu.
func (sf *slotFile) commit(payload []byte) error {
	if sf.f == nil {
		return fmt.Errorf("roundstate: %s is closed", sf.path)
	}
	n := len(payload)
	if n > maxPayload {
		return fmt.Errorf("roundstate: %d bytes of counters do not fit a %d-byte slot of %s", n, slotSize, sf.path)
	}
	seq, b, end := sf.seq+1, sf.buf[:], slotHeader+n
	copy(b, slotMagic)
	copy(b[slotHeader:], payload)
	binary.BigEndian.PutUint64(b[4:], seq)
	binary.BigEndian.PutUint32(b[12:], uint32(n))
	binary.BigEndian.PutUint32(b[end:], crc32.ChecksumIEEE(b[:end]))
	clear(b[end+4:])
	// A state file deleted or replaced under a running server would keep
	// accepting commits into an inode the next process never opens.
	if st, err := os.Stat(sf.path); err != nil {
		return fmt.Errorf("roundstate: %w", err)
	} else if !os.SameFile(st, sf.info) {
		return fmt.Errorf("roundstate: %s no longer names the open state file: refusing to commit where a restart would not find it", sf.path)
	}
	if _, err := sf.f.WriteAt(b, int64(slotOf(seq))*slotSize); err != nil {
		return fmt.Errorf("roundstate: %w", err)
	}
	if err := sf.f.Sync(); err != nil {
		return fmt.Errorf("roundstate: %w", err)
	}
	sf.seq = seq
	return nil
}

// Close releases the file and with it the advisory lock, so another
// process (or a reopened store) may take over the counters. A crashed
// process releases it implicitly. Close does not remove the file.
func (sf *slotFile) Close() error {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if sf.f == nil {
		return nil
	}
	err := sf.f.Close() // closing the descriptor drops the flock
	sf.f = nil
	return err
}

// counter is one named round counter of a Counters store.
type counter struct {
	name string
	last uint64
}

// appendCounter appends one payload line: "name value\n".
func appendCounter(p []byte, name string, last uint64) []byte {
	p = append(append(p, name...), ' ')
	return append(strconv.AppendUint(p, last, 10), '\n')
}

// findCounter returns where name is, or belongs, in the sorted cs.
func findCounter(cs []counter, name string) (int, bool) {
	return slices.BinarySearchFunc(cs, name, func(c counter, name string) int { return strings.Compare(c.name, name) })
}

// ErrReplay is Advance's refusal of a round at or below one already
// consumed under the same name (the strictly-increasing round check,
// docs/THREAT_MODEL.md §3).
var ErrReplay = errors.New("roundstate: round not newer than previous round")

// Counters holds independent monotonically increasing round counters —
// one per name. A chain server keeps its conversation and dialing
// counters here (the two protocols number rounds independently), a shard
// its conversation counter, and the coordinator the round numbers it has
// announced. From OpenCounters they live in a single file, exclusively
// held by this process until Close; the zero value is ready to use and
// keeps them in memory only, so a restart forgets every consumed round.
// Safe for concurrent use; Advance serializes internally.
type Counters struct {
	slotFile
	last []counter // sorted by name at insert: the payload's order
}

// OpenCounters reads the counters at path, creating the file if it does
// not exist yet, and holds it open under an exclusive advisory lock for
// the Counters' lifetime. A file that exists but does not load — no valid
// slot, a corrupt value, a duplicated or malformed name, trailing bytes —
// is an error, never a zero counter.
func OpenCounters(path string) (*Counters, error) {
	c := &Counters{}
	payload, err := c.open(path)
	if err == nil {
		if c.last, err = parseCounters(payload); err != nil {
			err = fmt.Errorf("roundstate: %s is corrupt (%w): refusing to reset the replay counters", path, err)
		}
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Open is OpenCounters. A shard's file had a shape of its own under this
// name; the name remains only because bench/deploy.go calls it, and a
// benchmark-only change can drop both.
func Open(path string) (*Counters, error) { return OpenCounters(path) }

// parseCounters decodes the Counters payload: zero or more
// newline-terminated "name value" lines, names unique and free of
// whitespace, values decimal uint64. Anything else is corruption — the
// caller refuses the file rather than guessing.
func parseCounters(data []byte) ([]counter, error) {
	var last []counter
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("unterminated final line %q", data)
		}
		line := data[:nl]
		data = data[nl+1:]
		name, value, ok := strings.Cut(string(line), " ")
		if !ok || !validCounterName(name) {
			return nil, fmt.Errorf("malformed line %q", line)
		}
		at, dup := findCounter(last, name)
		if dup {
			return nil, fmt.Errorf("duplicate counter %q", name)
		}
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("counter %q has non-decimal value %q", name, value)
		}
		last = slices.Insert(last, at, counter{name, n})
	}
	return last, nil
}

// validCounterName accepts non-empty names with no whitespace or
// control bytes — the file format's one structural requirement.
func validCounterName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		if name[i] <= ' ' || name[i] == 0x7f {
			return false
		}
	}
	return true
}

// Last returns the highest round committed under name (0 if none).
func (c *Counters) Last(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if at, ok := findCounter(c.last, name); ok {
		return c.last[at].last
	}
	return 0
}

// Advance consumes round under name, leaving every other counter
// untouched: ErrReplay unless round is above every round consumed under
// name (so round 0 never passes), otherwise the round is recorded — with
// a file behind the counters, durably, by one in-place write and fsync —
// and nil returned. Callers invoke it BEFORE acting on the round
// (write-ahead): once Advance returns nil, no later call, in this process
// or after a crash, accepts the round again. The check and the commit
// share one lock, so of concurrent calls for one round exactly one wins.
// If the write fails nothing advances, and the same round is accepted
// once the disk takes it.
func (c *Counters) Advance(name string, round uint64) error {
	if !validCounterName(name) {
		return fmt.Errorf("roundstate: invalid counter name %q", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	at, found := findCounter(c.last, name)
	var last uint64
	if found {
		last = c.last[at].last
	}
	if round <= last {
		return fmt.Errorf("%w: %d after %d", ErrReplay, round, last)
	}
	if !found {
		c.last = slices.Insert(c.last, at, counter{name: name})
	}
	if c.path != "" {
		p := c.buf[slotHeader:slotHeader]
		for i, o := range c.last {
			if i == at {
				o.last = round
			}
			p = appendCounter(p, o.name, o.last)
		}
		if err := c.commit(p); err != nil {
			if !found {
				c.last = slices.Delete(c.last, at, at+1)
			}
			return err
		}
	}
	c.last[at].last = round
	return nil
}

// Commit is Advance for a caller that numbers its own rounds (the
// coordinator): a round at or below the consumed counter is a no-op, not
// an error.
func (c *Counters) Commit(name string, round uint64) error {
	if err := c.Advance(name, round); !errors.Is(err, ErrReplay) {
		return err
	}
	return nil
}
