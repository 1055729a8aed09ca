package roundstate

// FuzzRoundStateLoad hammers the on-disk loader with arbitrary file
// contents — damaged slots, truncated files, trailing bytes, payloads
// that do not parse, a shard's single-counter files from before PR 24,
// files in the text format that preceded the slots. The loader fronts
// the one file whose silent mis-load reopens the round-replay window, so
// the invariants are: never panic, never accept a file and then refuse
// it unchanged, and whatever loads must round-trip bit-for-bit through
// close-and-reopen (a counter that drifts across restarts is a replay
// window too) and take a further commit.
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
	shard := append(slotImage(1, "41\n"), slotImage(2, "42\n")...)
	valid := append(slotImage(1, "convo 41\n"), slotImage(2, "convo 42\n")...)
	counters := append(slotImage(3, "convo 9\ndial 2\n"), slotImage(2, "convo 8\ndial 2\n")...)
	seeds := [][]byte{
		shard,                  // a pre-PR-24 shard file (payload "<n>\n"): refused, never zero
		counters,               // valid, newest in slot 0
		{},                     // created, never written
		make([]byte, 700),      // creation cut short
		make([]byte, fileSize), // created, never committed
		append(slotImage(1, "convo 18446744073709551615\n"), blankSlot()...), // saturated counter
		flipBit(valid, slotSize+3),                                  // bit flip: magic
		flipBit(valid, slotSize+11),                                 // bit flip: sequence
		flipBit(valid, slotSize+15),                                 // bit flip: payload length
		flipBit(valid, slotSize+17),                                 // bit flip: payload
		flipBit(valid, slotSize+16+9+3),                             // bit flip: checksum
		flipBit(valid, slotSize+100),                                // bit flip: padding
		flipBit(flipBit(valid, 17), 512+17),                         // both slots damaged
		valid[:fileSize-1],                                          // truncated by a byte
		valid[:slotSize],                                            // truncated to one slot
		valid[:slotSize+20],                                         // truncated mid-slot
		append(bytes.Clone(valid), 0),                               // trailing byte
		append(slotImage(1, "convo 9\nconvo 10\n"), blankSlot()...), // checksummed, duplicate counter
		append(slotImage(1, "convo 18446744073709551616\n"), blankSlot()...), // checksummed, uint64 overflow
		append(slotImage(1, "convo 5\r\n"), blankSlot()...),                  // checksummed, CR in value
		append(slotImage(math.MaxUint64, "convo 1\n"), blankSlot()...),       // sequence with no successor
		[]byte("42\n"),              // text format: shard
		[]byte("convo 9\ndial 2\n"), // text format: chain server
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cpath := filepath.Join(t.TempDir(), "counters")
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
			// A commit after load must still serialize a loadable file
			// (a saturated counter has no next round to commit).
			want := convo
			if convo < ^uint64(0) {
				want++
				if err := c2.Commit(ConvoCounter, want); err != nil {
					t.Fatal(err)
				}
			}
			c2.Close()
			c3, err := OpenCounters(cpath)
			if err != nil {
				t.Fatalf("re-serialized counters refused: %v", err)
			}
			if c3.Last(ConvoCounter) != want {
				t.Fatalf("committed counter lost: %d, want %d", c3.Last(ConvoCounter), want)
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
