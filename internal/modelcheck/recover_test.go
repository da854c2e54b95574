package modelcheck

import (
	"fmt"
	"testing"
)

// Kill-matrix: arbitrary op boundaries across seeds, with the
// checkpoint placed before, at, and far from the kill point so the
// WAL-tail replay length varies from zero to the whole script — and
// placed inline, by the plane itself every second WAL record, with
// watchers attached.
func TestCrashRecoveryKillMatrix(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5, 8} {
		for _, kill := range []int{1, 7, 20, 45, 1 << 30} {
			for _, ckptFrac := range []int{0, 2, 1} { // none, kill/2, at kill
				ckpt := 0
				if ckptFrac > 0 {
					ckpt = kill / ckptFrac
				}
				seed, kill, ckpt := seed, kill, ckpt
				t.Run(fmt.Sprintf("seed%d_ckpt%d_kill%d", seed, ckpt, kill), func(t *testing.T) {
					t.Parallel()
					RunCrashRecovery(t, seed, ckpt, kill, 0)
				})
			}
			seed, kill := seed, kill
			t.Run(fmt.Sprintf("seed%d_inline2_kill%d", seed, kill), func(t *testing.T) {
				t.Parallel()
				RunCrashRecovery(t, seed, 0, kill, 2)
			})
		}
	}
	// One more placement: a kind defined twice and subscribed in the WAL
	// tail, after a checkpoint that knows nothing of it.
	t.Run("seed1_ckpt10_kill20_redefine", func(t *testing.T) {
		t.Parallel()
		RunRedefineRecovery(t, 1, 10, 20)
	})
}

// Torn-write fault injection: every truncation class plus mid-record
// bit flips, each recovering to the exact durable op-boundary prefix.
func TestCrashRecoveryTornWrites(t *testing.T) {
	cases := map[string]func(wal []byte) []byte{
		"whole": func(b []byte) []byte { return b },
		"empty": func([]byte) []byte { return nil },
		"half": func(b []byte) []byte {
			return b[:len(b)/2]
		},
		"minus-one-byte": func(b []byte) []byte {
			if len(b) == 0 {
				return b
			}
			return b[:len(b)-1]
		},
		"header-only-tail": func(b []byte) []byte {
			if len(b) < 5 {
				return b
			}
			return b[:len(b)*3/4]
		},
		"bit-flip-middle": func(b []byte) []byte {
			if len(b) == 0 {
				return b
			}
			b[len(b)/2] ^= 0x10
			return b
		},
		"bit-flip-early": func(b []byte) []byte {
			if len(b) < 16 {
				return b
			}
			b[9] ^= 0x01 // inside the first record's payload
			return b
		},
	}
	for name, mutate := range cases {
		for _, seed := range []int64{4, 11} {
			name, mutate, seed := name, mutate, seed
			t.Run(fmt.Sprintf("%s_seed%d", name, seed), func(t *testing.T) {
				t.Parallel()
				RunTornWrite(t, seed, mutate)
			})
		}
	}
}
