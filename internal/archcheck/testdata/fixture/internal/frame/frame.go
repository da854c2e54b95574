// Package frame is the fixture's crc32 owner.
package frame

import "hash/crc32"

// Size is exported and used by no other package (exported-ceiling).
const Size = 8

func Sum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
