// Package stress is the SGX stress-kernel subsystem: parameterized,
// deterministic kernels that exercise exactly the behaviors the simulator
// exists to model and that the ported Phoenix/PARSEC/SPEC programs only hit
// incidentally. Where those programs answer "what does hardening cost on
// normal code", these kernels answer "what does it cost where shielded
// execution actually hurts" — the regimes the SGX benchmarking literature
// measures (EPC paging cliffs, enclave-transition pressure, many tasks
// multiplexed in one enclave, interpreter-style pointer chasing).
//
// Each kernel is registered both as a workload (runnable in any custom grid)
// and as a first-class experiment in the internal/bench registry, so
// sgxbench, the "all" sweep, sgxd and the cluster serve path pick it up with
// zero extra wiring:
//
//   - epc-thrash: working-set sweeps from EPC/4 to 4x the EPC capacity with
//     sequential, strided and random access mixes — the paging cliff, per
//     hardening policy, and how each policy's metadata footprint moves it.
//   - transition-storm: ecall/ocall-analogue boundary-heavy loops with tiny
//     per-crossing payloads — how per-access overhead composes with the
//     fixed transition cost.
//   - multitask: an Occlum-inspired scenario running N isolated tasks in
//     one enclave address space on internal/sfi fault domains, sweeping the
//     task count — how sgxbounds' compact tagged pointers scale against
//     asan/mpx disjoint shadow state.
//   - ptrchase: an interpreter-style pointer-chasing kernel with heap-graph
//     churn — the memory-safe-language-runtime-in-an-enclave shape.
//
// Like every workload, the kernels seed their own generators and are
// byte-deterministic: same parameters, same digest, same table, for any
// engine parallelism.
package stress

import (
	"encoding/binary"
	"io"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/enclave"
	"sgxbounds/internal/harden"
	"sgxbounds/internal/machine"
	"sgxbounds/internal/mem"
	"sgxbounds/internal/workloads"
)

// AllSizes is the full size sweep every stress experiment runs.
var AllSizes = []workloads.Size{workloads.XS, workloads.S, workloads.M, workloads.L, workloads.XL}

func init() {
	workloads.Register(workloads.Workload{Name: "epc_thrash", Suite: "stress", Run: runEPCThrash})
	workloads.Register(workloads.Workload{Name: "transition_storm", Suite: "stress", Run: runTransitionStorm})
	workloads.Register(workloads.Workload{Name: "multitask", Suite: "stress", PtrIntensive: true, Run: runMultitask})
	workloads.Register(workloads.Workload{Name: "ptrchase", Suite: "stress", PtrIntensive: true, Run: runPtrChase})

	bench.Register(bench.Experiment{
		Name: "epc-thrash", Desc: "stress: working-set sweep across the EPC capacity (the paging cliff)",
		UsesEPC: true,
		Run: func(e *bench.Engine, w io.Writer, opts bench.RunOpts) error {
			res := EPCThrash(e, w, AllSizes, opts.EPCBytes)
			return emitCSV(opts.CSV, "epc-thrash", func(f io.Writer) error { return WriteThrashCSV(f, res) })
		},
	})
	bench.Register(bench.Experiment{
		Name: "transition-storm", Desc: "stress: enclave-boundary-heavy loops (transition cost composition)",
		Run: func(e *bench.Engine, w io.Writer, opts bench.RunOpts) error {
			res := TransitionStorm(e, w, AllSizes)
			return emitCSV(opts.CSV, "transition-storm", func(f io.Writer) error {
				return WriteCellsCSV(f, "payload_accesses", res.Param, res.Cells)
			})
		},
	})
	bench.Register(bench.Experiment{
		Name: "multitask", Desc: "stress: N isolated tasks on SFI domains in one enclave (Occlum-style)",
		Run: func(e *bench.Engine, w io.Writer, opts bench.RunOpts) error {
			res := Multitask(e, w, AllSizes)
			return emitCSV(opts.CSV, "multitask", func(f io.Writer) error {
				return WriteCellsCSV(f, "tasks", res.Param, res.Cells)
			})
		},
	})
	bench.Register(bench.Experiment{
		Name: "ptrchase", Desc: "stress: interpreter-style pointer chasing with heap-graph churn",
		Run: func(e *bench.Engine, w io.Writer, opts bench.RunOpts) error {
			res := PtrChase(e, w, AllSizes)
			return emitCSV(opts.CSV, "ptrchase", func(f io.Writer) error {
				return WriteCellsCSV(f, "nodes", res.Param, res.Cells)
			})
		},
	})
}

// page is the simulated page size as a uint64.
const page = uint64(mem.PageSize)

// epcCapacity returns the machine's effective EPC capacity in bytes (the
// scaled default when the machine runs without an enclave).
func epcCapacity(c *harden.Ctx) uint64 {
	if epc := c.P.Env().M.EPC; epc != nil {
		return uint64(epc.Capacity()) * page
	}
	return enclave.DefaultEPCBytes
}

// effectiveEPC rounds a configured capacity down to whole pages, exactly as
// enclave.New does, so tables label sweeps with the capacity the machine
// actually enforces.
func effectiveEPC(bytes uint64) uint64 {
	if bytes == 0 {
		bytes = enclave.DefaultEPCBytes
	}
	pages := bytes / page
	if pages < 1 {
		pages = 1
	}
	return pages * page
}

// stressConfig is the machine configuration every stress cell runs on: the
// evaluation default, with the EPC capacity overridden when requested. It is
// fully populated so the engine's canonical cache key preserves the override
// instead of substituting the default configuration.
func stressConfig(epcBytes uint64) machine.Config {
	cfg := machine.DefaultConfig()
	if epcBytes != 0 {
		cfg.Enclave.EPCBytes = epcBytes
	}
	return cfg
}

// The kernels duplicate the private deterministic helpers of
// internal/workloads (xorshift generator, FNV-style digest mixing, worker
// chunking, deterministic fan-out): the workload contract is that every
// kernel owns its randomness and digests, and the duplication keeps the two
// suites independently tunable.

type rng uint64

func newRNG(seed uint64) rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return rng(seed)
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x
}

func (r *rng) intn(n uint32) uint32 { return uint32(r.next() % uint64(n)) }

// mix folds v into digest d (FNV-style).
func mix(d, v uint64) uint64 {
	d ^= v
	d *= 0x100000001B3
	return d
}

// chunk splits n items across nw workers, returning worker i's [lo, hi).
func chunk(n uint32, nw, i int) (uint32, uint32) {
	per := n / uint32(nw)
	lo := per * uint32(i)
	hi := lo + per
	if i == nw-1 {
		hi = n
	}
	return lo, hi
}

// parallel runs body on `threads` workers over c's machine and returns the
// per-worker digests mixed in worker order.
func parallel(c *harden.Ctx, threads int, body func(w *harden.Ctx, i int) uint64) uint64 {
	if threads <= 1 {
		return mix(0, body(c, 0))
	}
	digests := make([]uint64, threads)
	c.P.Env().M.Parallel(c.T, threads, func(t *machine.Thread, i int) {
		digests[i] = body(c.Fork(t), i)
	})
	var d uint64
	for _, v := range digests {
		d = mix(d, v)
	}
	return d
}

// bulkFill writes n bytes of deterministic pseudo-random data into [p, p+n)
// as one checked bulk transfer, the way inputs are ingested: one little-endian
// RNG word per 8 bytes, and zeros in a tail shorter than a word. The data is
// generated and copied in one page-sized buffer at a time.
func bulkFill(c *harden.Ctx, p harden.Ptr, n uint32, seed uint64) {
	c.P.CheckRange(c.T, p, n, harden.Write)
	c.T.Touch(p.Addr(), n, true)
	as := c.P.Env().M.AS
	r := newRNG(seed)
	var buf [mem.PageSize]byte
	for addr, left := p.Addr(), n; left > 0; {
		chunk := buf[:min(left, mem.PageSize)]
		i := 0
		for ; i+8 <= len(chunk); i += 8 {
			binary.LittleEndian.PutUint64(chunk[i:], r.next())
		}
		clear(chunk[i:])
		as.WriteBytes(addr, chunk)
		addr += uint32(len(chunk))
		left -= uint32(len(chunk))
	}
}

// emitCSV renders one grid through the sink, if any (the same contract as
// the bench registry's unexported helper).
func emitCSV(sink bench.CSVSink, name string, write func(io.Writer) error) error {
	if sink == nil {
		return nil
	}
	f, err := sink(name)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
