package roundstate

// FuzzRoundStateLoad hammers the two on-disk loaders with arbitrary
// file contents — damaged slots, truncated files, trailing bytes,
// payloads that do not parse, files in the text format that preceded the
// slots. The loaders front the one file whose silent mis-load reopens
// the round-replay window, so the invariants are: never panic, never
// accept a file and then refuse it unchanged, and whatever loads must
// round-trip bit-for-bit through close-and-reopen (a counter that drifts
// across restarts is a replay window too) and take a further commit.
//
// FuzzSlotTear is TestTornWriteTable over arbitrary counters: whatever
// the two payloads, a commit torn at any byte opens at the old counters
// or the new ones.

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func FuzzRoundStateLoad(f *testing.F) {
	store := append(slotImage(1, "41\n"), slotImage(2, "42\n")...)
	counters := append(slotImage(3, "convo 9\ndial 2\n"), slotImage(2, "convo 8\ndial 2\n")...)
	seeds := [][]byte{
		store,                  // valid Store, newest in slot 1
		counters,               // valid Counters, newest in slot 0
		{},                     // created, never written
		make([]byte, 700),      // creation cut short
		make([]byte, fileSize), // created, never committed
		append(slotImage(1, "18446744073709551615\n"), blankSlot()...), // saturated counter
		flipBit(store, slotSize+3),                                     // bit flip: magic
		flipBit(store, slotSize+11),                                    // bit flip: sequence
		flipBit(store, slotSize+15),                                    // bit flip: payload length
		flipBit(store, slotSize+17),                                    // bit flip: payload
		flipBit(store, slotSize+16+3+3),                                // bit flip: checksum
		flipBit(store, slotSize+100),                                   // bit flip: padding
		flipBit(flipBit(store, 17), 512+17),                            // both slots damaged
		store[:fileSize-1],                                             // truncated by a byte
		store[:slotSize],                                               // truncated to one slot
		store[:slotSize+20],                                            // truncated mid-slot
		append(bytes.Clone(store), 0),                                  // trailing byte
		append(slotImage(1, "convo 9\nconvo 10\n"), blankSlot()...),    // checksummed, duplicate counter
		append(slotImage(1, "18446744073709551616\n"), blankSlot()...), // checksummed, uint64 overflow
		append(slotImage(1, "convo 5\r\n"), blankSlot()...),            // checksummed, CR in value
		append(slotImage(math.MaxUint64, "1\n"), blankSlot()...),       // sequence with no successor
		[]byte("42\n"),                                                 // text format: Store
		[]byte("convo 9\ndial 2\n"),                                    // text format: Counters
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()

		// Single-counter loader.
		spath := filepath.Join(dir, "store")
		if err := os.WriteFile(spath, data, 0o600); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(spath); err == nil {
			last := s.Last()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(spath)
			if err != nil {
				t.Fatalf("accepted %q then refused it unchanged: %v", data, err)
			}
			if s2.Last() != last {
				t.Fatalf("Store counter drifted across reopen: %d then %d (input %q)", last, s2.Last(), data)
			}
			// A commit after load must still serialize a loadable file
			// (a saturated counter has no next round to commit).
			if last < ^uint64(0) {
				if err := s2.Commit(last + 1); err != nil {
					t.Fatal(err)
				}
				s2.Close()
				s3, err := Open(spath)
				if err != nil {
					t.Fatalf("re-serialized store refused: %v", err)
				}
				if s3.Last() != last+1 {
					t.Fatalf("committed counter lost: %d, want %d", s3.Last(), last+1)
				}
				s3.Close()
			} else {
				s2.Close()
			}
		}

		// Named-counters loader.
		cpath := filepath.Join(dir, "counters")
		if err := os.WriteFile(cpath, data, 0o600); err != nil {
			t.Fatal(err)
		}
		if c, err := OpenCounters(cpath); err == nil {
			convo, dial := c.Last(ConvoCounter), c.Last(DialCounter)
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			c2, err := OpenCounters(cpath)
			if err != nil {
				t.Fatalf("accepted %q then refused it unchanged: %v", data, err)
			}
			if c2.Last(ConvoCounter) != convo || c2.Last(DialCounter) != dial {
				t.Fatalf("counters drifted across reopen: %d/%d then %d/%d (input %q)",
					convo, dial, c2.Last(ConvoCounter), c2.Last(DialCounter), data)
			}
			if convo < ^uint64(0) {
				if err := c2.Commit(ConvoCounter, convo+1); err != nil {
					t.Fatal(err)
				}
			}
			c2.Close()
			c3, err := OpenCounters(cpath)
			if err != nil {
				t.Fatalf("re-serialized counters refused: %v", err)
			}
			c3.Close()
		}
	})
}

func FuzzSlotTear(f *testing.F) {
	f.Add(uint64(9), uint64(4), uint64(1), "", uint16(17))
	f.Add(uint64(1), uint64(0), uint64(1), "x", uint16(0))
	f.Add(uint64(99999), uint64(7), uint64(900001), "frontend-3", uint16(512))
	f.Add(uint64(math.MaxUint64-2), uint64(math.MaxUint64), uint64(1), "z", uint16(300))
	f.Fuzz(func(t *testing.T, convo, dial, step uint64, extra string, cut uint16) {
		if convo == 0 || step == 0 || convo+step+1 <= convo {
			t.Skip("needs a committed counter with two rounds left above it")
		}
		if extra != "" && (!validCounterName(extra) || len(extra) > 200 || extra == ConvoCounter || extra == DialCounter) {
			t.Skip("not a third counter's name")
		}
		before, after, slot := tearPair(t, func(c *Counters) {
			commit(t, c, ConvoCounter, convo)
			commit(t, c, DialCounter, dial)
			if extra != "" {
				commit(t, c, extra, 1)
			}
		}, func(c *Counters) { commit(t, c, ConvoCounter, convo+step) })
		checkTear(t, before, after, slot, int(cut)%(slotSize+1), convo, convo+step, dial)
	})
}
