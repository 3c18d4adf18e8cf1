#include "vm/vm.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <optional>

#include "bytecode/decode.hh"
#include "minic/ast.hh"
#include "obs/metrics.hh"
#include "support/logging.hh"
#include "support/strings.hh"

// VM_ALWAYS_INLINE forces a helper lambda into its call sites:
// inside the large interpreter body GCC would otherwise keep some of
// them out of line. VM_COLD keeps a rarely taken one out of line.
#if defined(__GNUC__) || defined(__clang__)
#define VM_ALWAYS_INLINE __attribute__((always_inline))
#define VM_COLD __attribute__((noinline, cold))
#else
#define VM_ALWAYS_INLINE
#define VM_COLD
#endif

namespace compdiff::vm
{

using bytecode::Function;
using bytecode::Module;
using compiler::CompilerConfig;
using compiler::Sanitizer;
using compiler::ShiftPolicy;
using support::Bytes;

namespace
{

/** One evaluation-stack slot: a 64-bit word plus its MSan shadow. */
struct Slot
{
    std::uint64_t v = 0;
    std::uint8_t poison = 0;

    bool operator==(const Slot &) const = default;
};

/** One call frame. */
struct Frame
{
    int func = 0;
    std::size_t pc = 0;
    std::uint64_t fp = 0;
    std::uint64_t spRestore = 0;

    bool operator==(const Frame &) const = default;
};

double
asDouble(std::uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

std::uint64_t
asBits(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

std::int64_t
doubleToInt(double d)
{
    // x86 cvttsd2si behavior for out-of-range / NaN inputs.
    if (!(d >= -9.2233720368547758e18 && d <= 9.2233720368547758e18))
        return INT64_MIN;
    return static_cast<std::int64_t>(d);
}

/**
 * Evaluation-stack depth cap. Lowered code is stack-balanced with
 * depth bounded by expression nesting, so real programs never come
 * close; the cap turns a hand-assembled push loop into a
 * deterministic trap well before memory pressure (the instruction
 * budget bounds growth to ~2M slots anyway).
 */
constexpr std::size_t kMaxOperandSlots = std::size_t{1} << 20;

/**
 * The operand stack's growth path, taken when a push finds the
 * storage full: doubles it, up to kMaxOperandSlots, and returns its
 * new start. Kept out of line and cold, away from the handlers.
 */
VM_COLD Slot *
growOperandStack(std::vector<Slot> &stack)
{
    stack.resize(std::min(stack.size() * 2, kMaxOperandSlots));
    return stack.data();
}

// --- hang fast-forward (DESIGN.md §13) -------------------------------
// A run that comes back to a complete state it was in before is in a
// cycle: from there it repeats the same instructions and the same
// output until the budget stop or the output cap changes what a
// period does. HangProbe proves such a repeat at taken backward
// branches and skips the whole periods that provably end before both.

/** Instructions a run executes before it starts probing. */
constexpr std::uint64_t kHangProbeStart = std::uint64_t{1} << 16;
/** Fewest instructions between two probes. */
constexpr std::uint64_t kHangProbeGap = 2048;
/** Further instructions between two probes per snapshot byte: 8 pay
 *  for comparing the byte at the next probe, 8 for copying it into a
 *  new snapshot. */
constexpr std::uint64_t kHangInsnsPerSnapshotByte = 16;
/** Instructions a snapshot waits for its repeat before a probe
 *  replaces it; the wait doubles with every replacement (Brent). */
constexpr std::uint64_t kHangFirstWindow = std::uint64_t{1} << 12;
/** Snapshot capacity: call frames, operand slots and the dirty bytes
 *  of globals, stack and heap. A larger state is not probed. */
constexpr std::size_t kHangSnapshotBytes = std::size_t{1} << 14;

/** The interpreter's register-resident state at a probe, by value. */
struct HangPoint
{
    std::uint64_t icount;
    const bytecode::XInsn *ip;
    std::uint64_t fp;
    std::size_t inputCursor;
    const Slot *base;
    const Slot *top;
};

/** A probe's verdict: the run's instruction count, advanced by the
 *  periods it skipped, and the count at which it may probe again. */
struct HangStep
{
    std::uint64_t icount;
    std::uint64_t next;
};

/** Do `n` objects equal the ones saved raw at `saved`? Compares
 *  members, so padding bytes never matter. */
template <class T>
bool
sameObjects(const T *live, std::size_t n, const std::uint8_t *saved)
{
    for (std::size_t i = 0; i < n; i++) {
        T copy;
        std::memcpy(&copy, saved + i * sizeof(T), sizeof(T));
        if (!(copy == live[i]))
            return false;
    }
    return true;
}

/**
 * Append `n` more copies of the last `len` bytes of `out`. The string
 * grows exactly as appending them one period at a time would: the
 * periods that fit its capacity are copied in place, and a period that
 * does not fit is appended alone. With capacity >= len that is also
 * what appending the period's pieces one by one does.
 */
void
appendPeriods(std::string &out, std::size_t len, std::uint64_t n)
{
    while (n > 0) {
        const std::uint64_t fit = std::min<std::uint64_t>(
            n, (out.capacity() - out.size()) / len);
        if (fit == 0) {
            out.append(out, out.size() - len, len);
            n--;
            continue;
        }
        const std::size_t at = out.size();
        const std::size_t total = static_cast<std::size_t>(fit) * len;
        out.resize(at + total);
        // out[at - len, at + filled) repeats the period; copying its
        // prefix to at + filled doubles it.
        for (std::size_t filled = 0; filled < total;) {
            const std::size_t chunk =
                std::min(filled + len, total - filled);
            std::memcpy(out.data() + at + filled, out.data() + at - len,
                        chunk);
            filled += chunk;
        }
        n -= fit;
    }
}

class HangProbe
{
  public:
    // User-provided, so that the snapshot buffer is left
    // uninitialized: only runs that snapshot touch its pages.
    HangProbe() {}

    /** Instructions the current run skipped. */
    std::uint64_t skipped = 0;

    void
    beginRun()
    {
        skipped = 0;
        armed_ = false;
        size_ = 0;
        window_ = kHangFirstWindow;
    }

    /**
     * One probe at a taken backward branch. Compares the state with
     * the snapshot; on a repeat of period P that appended D, skips n
     * periods (n * P instructions, D appended n times). Otherwise it
     * keeps the snapshot, or replaces it once its window has passed.
     */
    VM_COLD HangStep probe(const HangPoint &at,
                           const std::vector<Frame> &frames,
                           AddressSpace &space, const Heap &heap,
                           ExecutionResult &res, const VmLimits &limits);

  private:
    /** Everything but the bytes, compared first. */
    struct Shape
    {
        const bytecode::XInsn *ip = nullptr;
        std::uint64_t fp = 0;
        std::size_t inputCursor = 0;
        std::size_t depth = 0;
        std::size_t frames = 0;
        std::uint64_t heapCalls = 0;
        std::size_t probes = 0;
        std::uint64_t dirtyLo[3] = {};
        std::uint64_t dirtyHi[3] = {};

        bool operator==(const Shape &) const = default;
    };

    bool sameState(const HangPoint &at,
                   const std::vector<Frame> &frames,
                   Segment *const segs[3]) const;
    void snapshot(const HangPoint &at, const Shape &shape,
                  const std::vector<Frame> &frames, Segment *const segs[3]);
    void
    anchor(std::uint64_t icount, const ExecutionResult &res)
    {
        snapIcount_ = icount;
        snapExecuted_ = icount - skipped;
        snapOutput_ = res.output.size();
    }
    std::uint64_t fastForward(std::uint64_t icount, ExecutionResult &res,
                              const VmLimits &limits);

    bool armed_ = false;
    std::uint64_t window_ = kHangFirstWindow;
    Shape shape_;
    /** Bytes in use in bytes_ (0 when not armed). */
    std::size_t size_ = 0;
    std::uint64_t snapIcount_ = 0;
    std::uint64_t snapExecuted_ = 0;
    std::size_t snapOutput_ = 0;
    /** Frames, then operand slots, then the dirty bytes of stack,
     *  globals and heap. */
    alignas(16) std::uint8_t bytes_[kHangSnapshotBytes];
};

HangStep
HangProbe::probe(const HangPoint &at, const std::vector<Frame> &frames,
                 AddressSpace &space, const Heap &heap,
                 ExecutionResult &res, const VmLimits &limits)
{
    // Stack first: loop counters are mostly locals.
    Segment *const segs[3] = {&space.stack(), &space.globals(),
                              &space.heap()};
    Shape shape;
    shape.ip = at.ip;
    shape.fp = at.fp;
    shape.inputCursor = at.inputCursor;
    shape.depth = static_cast<std::size_t>(at.top - at.base);
    shape.frames = frames.size();
    shape.heapCalls = heap.calls();
    shape.probes = res.probes.size();
    for (int i = 0; i < 3; i++) {
        shape.dirtyLo[i] = segs[i]->dirtyLo;
        shape.dirtyHi[i] = segs[i]->dirtyHi;
    }

    std::uint64_t icount = at.icount;
    if (armed_ && shape == shape_ && sameState(at, frames, segs)) {
        icount += fastForward(icount, res, limits);
        // The state is still the snapshot's: only its anchor moves.
        anchor(icount, res);
    } else if (!armed_ || icount - skipped - snapExecuted_ >= window_) {
        if (armed_)
            window_ *= 2;
        snapshot(at, shape, frames, segs);
        anchor(icount, res);
    }
    // The wait depends on the snapshot alone, so that between two
    // snapshots the probes of a cycle visit its phases periodically
    // and come back to the snapshot's.
    return {icount,
            icount + kHangProbeGap + kHangInsnsPerSnapshotByte * size_};
}

bool
HangProbe::sameState(const HangPoint &at,
                     const std::vector<Frame> &frames,
                     Segment *const segs[3]) const
{
    const std::uint8_t *saved = bytes_;
    if (!sameObjects(frames.data(), shape_.frames, saved))
        return false;
    saved += shape_.frames * sizeof(Frame);
    if (!sameObjects(at.base, shape_.depth, saved))
        return false;
    saved += shape_.depth * sizeof(Slot);
    for (int i = 0; i < 3; i++) {
        if (shape_.dirtyLo[i] >= shape_.dirtyHi[i])
            continue;
        const std::size_t n = shape_.dirtyHi[i] - shape_.dirtyLo[i];
        if (std::memcmp(segs[i]->data.data() + shape_.dirtyLo[i], saved,
                        n) != 0)
            return false;
        saved += n;
    }
    return true;
}

void
HangProbe::snapshot(const HangPoint &at, const Shape &shape,
                    const std::vector<Frame> &frames,
                    Segment *const segs[3])
{
    std::uint64_t size = shape.frames * sizeof(Frame) +
                         shape.depth * sizeof(Slot);
    for (int i = 0; i < 3; i++) {
        if (shape.dirtyLo[i] < shape.dirtyHi[i])
            size += shape.dirtyHi[i] - shape.dirtyLo[i];
    }
    armed_ = size <= kHangSnapshotBytes;
    size_ = armed_ ? size : 0;
    if (!armed_)
        return;
    std::uint8_t *out = bytes_;
    std::memcpy(out, frames.data(), shape.frames * sizeof(Frame));
    out += shape.frames * sizeof(Frame);
    std::memcpy(out, at.base, shape.depth * sizeof(Slot));
    out += shape.depth * sizeof(Slot);
    for (int i = 0; i < 3; i++) {
        if (shape.dirtyLo[i] >= shape.dirtyHi[i])
            continue;
        const std::size_t n = shape.dirtyHi[i] - shape.dirtyLo[i];
        std::memcpy(out, segs[i]->data.data() + shape.dirtyLo[i], n);
        out += n;
    }
    shape_ = shape;
}

/**
 * The periods to skip after a proven repeat, and their output. n is
 * the largest count that leaves at least one period before the budget
 * (so the budget stop, even one inside a superinstruction, executes
 * for real) and lets every skipped append start below the output cap
 * (so each appends in full, as in the period that was observed).
 */
std::uint64_t
HangProbe::fastForward(std::uint64_t icount, ExecutionResult &res,
                       const VmLimits &limits)
{
    const std::uint64_t period = icount - snapIcount_;
    const std::uint64_t room = limits.maxInstructions - icount;
    if (room < period)
        return 0;
    std::uint64_t n = (room - period) / period;
    std::string &out = res.output;
    const std::size_t grown = out.size() - snapOutput_;
    if (grown > 0) {
        // Below capacity `grown`, the string would grow differently
        // piece by piece than period by period.
        if (out.size() >= limits.maxOutput || out.capacity() < grown)
            return 0;
        n = std::min<std::uint64_t>(
            n, (limits.maxOutput - out.size()) / grown);
        appendPeriods(out, grown, n);
    }
    skipped += n * period;
    return n * period;
}

} // namespace

DispatchMode
defaultDispatchMode()
{
    return COMPDIFF_VM_HAS_THREADED ? DispatchMode::Threaded
                                    : DispatchMode::Switch;
}

const char *
dispatchModeName(DispatchMode mode)
{
    return mode == DispatchMode::Threaded ? "threaded" : "switch";
}

/**
 * The per-run arena. All of it survives across runs: the address
 * space and heap are reset (dirty ranges refilled, bookkeeping
 * cleared), the vectors keep their capacity.
 */
struct Vm::RunState
{
    // User-provided: value-initialization would zero `hang`'s buffer.
    RunState() {}

    std::optional<AddressSpace> space;
    std::optional<Heap> heap;
    /** Does `space` still hold a previous module's rodata? */
    bool rodataStale = true;
    /** Mapped globals-segment size (~0 = not mapped yet). */
    std::uint64_t globalsMapped = ~std::uint64_t{0};
    std::vector<Frame> frames;
    std::vector<Slot> stack;
    /** Argument scratch for Call/CallB. */
    std::vector<Slot> args;
    /** The `vm.instructions.<config>` handle, looked up on first use. */
    obs::Counter *configInstructions = nullptr;
    /** Cycle detection and its snapshot (hang fast-forward). */
    HangProbe hang;
};

Vm::Vm(const Module &module, const CompilerConfig &config,
       VmLimits limits)
    : module_(nullptr), config_(config),
      traits_(compiler::traitsFor(config)), limits_(limits),
      state_(std::make_unique<RunState>())
{
    bindModule(module);
}

Vm::~Vm() = default;
Vm::Vm(Vm &&) noexcept = default;
Vm &Vm::operator=(Vm &&) noexcept = default;

void
Vm::bindModule(const Module &module)
{
    module_ = &module;
    // Compiler output carries its decoded image; hand-assembled
    // modules are decoded here on bind.
    decoded_ = module.decoded ? module.decoded
                              : bytecode::decodeModule(module);

    globalAddr_.assign(module.globals.size(), 0);
    globalsImage_.assign(
        std::max<std::uint64_t>(module.globalsSegmentSize, 16), 0);
    for (const auto &g : module.globals) {
        globalAddr_[static_cast<std::size_t>(g.globalId)] =
            traits_.globalsBase + g.segmentOffset;
        std::int64_t word = 0;
        switch (g.init) {
          case bytecode::GlobalLayout::Init::Zero:
            continue;
          case bytecode::GlobalLayout::Init::Word:
            word = g.initWord;
            break;
          case bytecode::GlobalLayout::Init::Rodata:
            word = static_cast<std::int64_t>(traits_.rodataBase) +
                   g.initWord;
            break;
        }
        std::memcpy(globalsImage_.data() + g.segmentOffset, &word,
                    g.valueSize);
    }

    // The arena (if built) holds the previous module's rodata and
    // globals mapping; the next run re-maps both.
    state_->rodataStale = true;
    state_->globalsMapped = ~std::uint64_t{0};
}

void
Vm::rebind(const Module &module)
{
    bindModule(module);
}

void
Vm::setDecodedProgram(
    std::shared_ptr<const bytecode::DecodedProgram> decoded)
{
    decoded_ = std::move(decoded);
}

ExecutionResult
Vm::run(const Bytes &input, CoverageMap *coverage, std::uint64_t nonce,
        std::vector<TraceEntry> *trace)
{
#if COMPDIFF_VM_HAS_THREADED
    if (dispatch_ == DispatchMode::Threaded)
        return runThreaded(input, coverage, nonce, trace);
#endif
    return runSwitch(input, coverage, nonce, trace);
}

// The interpreter body lives in interp.inc and is instantiated once
// per dispatch mode; see the header comment there.

#define VM_IMPL_NAME runSwitch
#define VM_USE_THREADED 0
#include "vm/interp.inc"
#undef VM_IMPL_NAME
#undef VM_USE_THREADED

#if COMPDIFF_VM_HAS_THREADED
#define VM_IMPL_NAME runThreaded
#define VM_USE_THREADED 1
#include "vm/interp.inc"
#undef VM_IMPL_NAME
#undef VM_USE_THREADED
#endif

#undef VM_ALWAYS_INLINE
#undef VM_COLD

} // namespace compdiff::vm
