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
};

/** One call frame. */
struct Frame
{
    int func = 0;
    std::size_t pc = 0;
    std::uint64_t fp = 0;
    std::uint64_t spRestore = 0;
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
