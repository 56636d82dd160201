package driver

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"

	"branchreg/internal/emu"
	"branchreg/internal/isa"
)

// firstNonzero returns the index of the first nonzero byte of b, or -1.
func firstNonzero(b []byte) int {
	if bytes.Count(b, []byte{0}) == len(b) {
		return -1
	}
	return bytes.IndexFunc(b, func(r rune) bool { return r != 0 })
}

// TestPooledImageIsZero: bytes written anywhere in an image (its ends,
// below the data segment, in the gap between data and stack, just below
// the stack top) read as zero once the image is released and borrowed
// again.
func TestPooledImageIsZero(t *testing.T) {
	b := borrowMem()
	spots := []int{
		0, len(b) - 1, // the first and last byte
		isa.TextBase, isa.DataBase - 1, // below the data segment
		isa.DataBase + 4096, (isa.DataBase + isa.StackTop) / 2, // data, and the gap up to the stack
		isa.StackTop - 4096, isa.StackTop - 1, // just below the stack top
	}
	for i, at := range spots {
		b[at] = byte(0xa0 + i)
	}
	first := &b[0]
	releaseMem(b)
	b = borrowMem()
	defer releaseMem(b)
	if &b[0] != first {
		t.Fatal("the pool did not hand the released image out again")
	}
	if i := firstNonzero(b); i >= 0 {
		t.Fatalf("byte %#x of a pooled image is %#x, want 0", i, b[i])
	}
}

// TestMemPoolOverCap: more images borrowed at once than the free list
// keeps. Releasing them all keeps the list at its cap (the rest are
// freed), and every image handed out afterwards is zero. Meaningful
// under -race.
func TestMemPoolOverCap(t *testing.T) {
	limit := memPoolSlack * runtime.GOMAXPROCS(0)
	imgs := make([][]byte, limit+3)
	var wg sync.WaitGroup
	for i := range imgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := borrowMem()
			b[i*4096] = 1
			b[len(b)-1-i] = 2
			imgs[i] = b
		}()
	}
	wg.Wait()
	for _, b := range imgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			releaseMem(b)
		}()
	}
	wg.Wait()
	memPool.mu.Lock()
	kept := len(memPool.free)
	memPool.mu.Unlock()
	if kept != limit {
		t.Fatalf("free list holds %d images after %d releases, want its cap %d", kept, len(imgs), limit)
	}
	for i := 0; i < limit; i++ {
		b := borrowMem()
		defer releaseMem(b)
		if j := firstNonzero(b); j >= 0 {
			t.Fatalf("byte %#x of pooled image %d is %#x, want 0", j, i, b[j])
		}
	}
}

// dirtySrc leaves values in its stack frames and far into its data.
const dirtySrc = `
int g[256];
int fill(int k) {
    int loc[64];
    int i;
    for (i = 0; i < 64; i++) loc[i] = k * 7 + i + 1;
    for (i = 0; i < 256; i++) g[i] = k + i + 1;
    return loc[k & 63];
}
int main(void) {
    int s = 0;
    int k;
    for (k = 0; k < 8; k++) s += fill(k);
    return s & 255;
}
`

// peekSrc prints a hash of uninitialised stack locals and of the data
// words past its own four.
const peekSrc = `
int d[4];
void hex(int v) {
    int i;
    for (i = 28; i >= 0; i -= 4) {
        int c = (v >> i) & 15;
        if (c < 10) putchar('0' + c); else putchar('a' + c - 10);
    }
    putchar('\n');
}
int peek(void) {
    int loc[64];
    int s = 0;
    int i;
    for (i = 0; i < 64; i++) s = s * 31 + loc[i];
    return s;
}
int main(void) {
    int *p = d;
    int s = 0;
    int i;
    int t = peek();
    for (i = 0; i < 256; i++) s = s * 31 + p[i];
    hex(t);
    hex(s);
    return 0;
}
`

// TestPooledImageRunsLikeFresh: a program that reads uninitialised
// stack and data prints the same on a pooled image, after a program
// that left values there, as on a fresh emu.New image, on every
// fast-path tier.
func TestPooledImageRunsLikeFresh(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
		dirty, err := Compile(ctx, dirtySrc, kind, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		peek, err := Compile(ctx, peekSrc, kind, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		run := func(p *isa.Program, mem []byte, loop emu.LoopMode) string {
			m, err := emu.NewWithMem(p, "", mem)
			if err != nil {
				t.Fatal(err)
			}
			m.Loop = loop
			if _, err := m.RunContext(ctx); err != nil {
				t.Fatal(err)
			}
			return m.Output()
		}
		// The test means something only if the first program leaves
		// values the second one sees.
		mem := make([]byte, isa.MemBytes)
		run(dirty, mem, emu.LoopFast)
		if run(peek, mem, emu.LoopFast) == run(peek, nil, emu.LoopFast) {
			t.Fatalf("%v: the reader does not see the writer's leftovers", kind)
		}
		for _, loop := range []emu.LoopMode{emu.LoopFast, emu.LoopFused, emu.LoopAdaptive} {
			want := run(peek, nil, loop)
			if _, err := Exec(ctx, Request{Program: dirty, Loop: loop}); err != nil {
				t.Fatal(err)
			}
			fresh := PoolStatsNow().Fresh
			res, err := Exec(ctx, Request{Program: peek, Loop: loop})
			if err != nil {
				t.Fatal(err)
			}
			if PoolStatsNow().Fresh != fresh {
				t.Fatalf("%v/%v: the reader ran on a fresh image, not a pooled one", kind, loop)
			}
			if res.Output != want {
				t.Errorf("%v/%v: pooled image prints %q, fresh image %q", kind, loop, res.Output, want)
			}
		}
	}
}
