package nn

// Runtime-dispatched SIMD kernels (see asm_amd64.s). useASM is fixed at
// process start, so every forward/backward in a process runs the same code
// path and results stay bit-deterministic.

// cpuHasAVX2FMA reports whether the CPU and OS support the AVX2+FMA kernels.
func cpuHasAVX2FMA() bool

// dotAsm returns the dot product over len(a) elements; the caller must
// guarantee len(b) >= len(a).
//
//go:noescape
func dotAsm(a, b []float64) float64

// dotRowsAsm sets dst[o] to dotAsm(w[o*in:o*in+in], x) for every o, bit for
// bit, two rows per pass; the caller must guarantee len(w) >= len(dst)*in
// and len(x) >= in.
//
//go:noescape
func dotRowsAsm(dst, w, x []float64, in int)

// axpyAsm adds alpha*x into dst elementwise over len(dst) elements; the
// caller must guarantee len(x) >= len(dst).
//
//go:noescape
func axpyAsm(dst, x []float64, alpha float64)

// tanhAsm replaces xs[i] with math.Tanh(xs[i]), bit for bit, for
// i < len(xs)&^3; the remainder is the caller's.
//
//go:noescape
func tanhAsm(xs []float64)

var useASM = cpuHasAVX2FMA()
