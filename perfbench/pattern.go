package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
)

// pattern is the seeded content of every file the benchmark writes:
// byte o of a file is pool[o % period]. The period is odd, so a block
// written at the wrong offset (any shift that is not a multiple of the
// period) reads back different bytes. pool holds two periods, so every
// window of up to one period is a plain slice and payloads are built
// without copying.
type pattern struct {
	period int64
	pool   []byte
}

const patternPeriod = 4<<20 + 4093

func newPattern(seed uint64) *pattern {
	r := rand.New(rand.NewPCG(seed, 0x6c64706c6673))
	pool := make([]byte, 2*patternPeriod)
	for i := 0; i < patternPeriod; i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < patternPeriod; j++ {
			pool[i+j] = byte(v >> (8 * j))
		}
	}
	copy(pool[patternPeriod:], pool[:patternPeriod])
	return &pattern{period: patternPeriod, pool: pool}
}

// at returns the expected bytes [off, off+n) of a file; n must not
// exceed the period. The slice aliases the pool: callers only read it.
func (p *pattern) at(off int64, n int) []byte {
	s := off % p.period
	return p.pool[s : s+int64(n)]
}

// check compares b with the expected bytes at off.
func (p *pattern) check(off int64, b []byte) error {
	for len(b) > 0 {
		n := min(len(b), int(p.period))
		if want := p.at(off, n); !bytes.Equal(b[:n], want) {
			i := 0
			for b[i] == want[i] {
				i++
			}
			return fmt.Errorf("byte %d reads %#02x, want %#02x", off+int64(i), b[i], want[i])
		}
		b, off = b[n:], off+int64(n)
	}
	return nil
}
