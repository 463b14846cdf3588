#include "profiler.hpp"

#include <cxxabi.h>
#include <elf.h>
#include <link.h>
#include <signal.h>
#include <time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string_view>

namespace dpar_bench {
namespace {

// Signal-handler state. The handler runs on the only thread, so the counter
// needs no ordering beyond a signal fence around reads.
std::uintptr_t* g_buf = nullptr;
std::size_t g_cap = 0;
std::atomic<std::size_t> g_count{0};
std::atomic<std::uint64_t> g_dropped{0};
struct sigaction g_old_action;

void on_sigprof(int /*sig*/, siginfo_t* /*info*/, void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "dpar_bench's sampler reads the PC on x86-64 and AArch64 only"
#endif
  const std::size_t i = g_count.load(std::memory_order_relaxed);
  if (i < g_cap) {
    g_buf[i] = pc;
    g_count.store(i + 1, std::memory_order_relaxed);
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

void arm(void* timer, long period_ns) {
  itimerspec spec{};
  spec.it_interval.tv_nsec = period_ns;
  spec.it_value.tv_nsec = period_ns;
  if (timer_settime(static_cast<timer_t>(timer), 0, &spec, nullptr) != 0)
    throw std::runtime_error("timer_settime failed");
}

// ---- Symbol resolution ----

struct FuncSym {
  std::uintptr_t addr;  ///< link-time address
  std::uintptr_t size;
  std::uint32_t name;   ///< offset into the string table
};

/// Function symbols of the running executable (its .symtab, which a
/// non-stripped build keeps) plus its load bias and executable segments.
class ExeSymbols {
 public:
  ExeSymbols() {
    std::ifstream f("/proc/self/exe", std::ios::binary);
    image_.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
    Elf64_Ehdr eh;
    read_(0, eh);
    if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 || eh.e_ident[EI_CLASS] != ELFCLASS64)
      throw std::runtime_error("/proc/self/exe is not a 64-bit ELF file");
    for (std::size_t i = 0; i < eh.e_shnum; ++i) {
      Elf64_Shdr sh;
      read_(eh.e_shoff + i * eh.e_shentsize, sh);
      if (sh.sh_type != SHT_SYMTAB) continue;
      Elf64_Shdr str;
      read_(eh.e_shoff + sh.sh_link * eh.e_shentsize, str);
      strtab_ = str.sh_offset;
      strtab_size_ = str.sh_size;
      for (std::size_t off = 0; off + sizeof(Elf64_Sym) <= sh.sh_size; off += sizeof(Elf64_Sym)) {
        Elf64_Sym s;
        read_(sh.sh_offset + off, s);
        if (ELF64_ST_TYPE(s.st_info) == STT_FUNC && s.st_size > 0 &&
            s.st_shndx != SHN_UNDEF && s.st_name < strtab_size_)
          syms_.push_back(FuncSym{s.st_value, s.st_size, s.st_name});
      }
    }
    if (syms_.empty())
      throw std::runtime_error("executable has no function symbols (stripped?)");
    std::sort(syms_.begin(), syms_.end(),
              [](const FuncSym& a, const FuncSym& b) { return a.addr < b.addr; });
    // The first object dl_iterate_phdr reports is the main program.
    dl_iterate_phdr(
        [](dl_phdr_info* info, std::size_t, void* self) {
          auto* me = static_cast<ExeSymbols*>(self);
          me->bias_ = info->dlpi_addr;
          for (int i = 0; i < info->dlpi_phnum; ++i) {
            const ElfW(Phdr)& ph = info->dlpi_phdr[i];
            if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X) != 0)
              me->text_.emplace_back(info->dlpi_addr + ph.p_vaddr,
                                     info->dlpi_addr + ph.p_vaddr + ph.p_memsz);
          }
          return 1;
        },
        this);
  }

  bool in_exe(std::uintptr_t pc) const {
    return std::any_of(text_.begin(), text_.end(),
                       [pc](const auto& r) { return pc >= r.first && pc < r.second; });
  }

  /// Index of the function symbol covering `pc`, or -1.
  long find(std::uintptr_t pc) const {
    const std::uintptr_t addr = pc - bias_;
    auto it = std::upper_bound(syms_.begin(), syms_.end(), addr,
                               [](std::uintptr_t a, const FuncSym& s) { return a < s.addr; });
    if (it == syms_.begin()) return -1;
    --it;
    return addr < it->addr + it->size ? it - syms_.begin() : -1;
  }

  std::string demangled(long idx) const {
    const char* raw = image_.data() + strtab_ + syms_[static_cast<std::size_t>(idx)].name;
    int status = 0;
    char* d = abi::__cxa_demangle(raw, nullptr, nullptr, &status);
    std::string out = (status == 0 && d != nullptr) ? d : raw;
    std::free(d);
    return out;
  }

 private:
  template <class T>
  void read_(std::uint64_t off, T& out) const {
    if (off > image_.size() || image_.size() - off < sizeof(T))
      throw std::runtime_error("truncated ELF image");
    std::memcpy(&out, image_.data() + off, sizeof(T));
  }

  std::vector<char> image_;
  std::uint64_t strtab_ = 0;
  std::uint64_t strtab_size_ = 0;
  std::vector<FuncSym> syms_;
  std::uintptr_t bias_ = 0;
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> text_;
};

// ---- Name parsing ----

/// Index one past the end of the operator token starting at `i` (which
/// points at "operator"): operator(), operator[], operator<<=, operator->...
std::size_t operator_end(std::string_view s, std::size_t i) {
  std::size_t j = i + 8;
  if (s.compare(j, 2, "()") == 0 || s.compare(j, 2, "[]") == 0) return j + 2;
  while (j < s.size() && std::string_view("<>=-!+*/%^&|~").find(s[j]) != std::string_view::npos)
    ++j;
  return j;
}

/// `s` without the contents of its <...> and (...) groups: the scope path of
/// the function itself, free of template arguments and parameter types.
std::string scope_path(std::string_view s) {
  std::string out;
  int depth = 0;
  for (std::size_t i = 0; i < s.size();) {
    if (s.compare(i, 8, "operator") == 0) {
      const std::size_t j = operator_end(s, i);
      if (depth == 0) out.append(s.substr(i, j - i));
      i = j;
      continue;
    }
    const char c = s[i++];
    if (c == '<' || c == '(') {
      ++depth;
    } else if (c == '>' || c == ')') {
      depth = std::max(depth - 1, 0);
    } else if (depth == 0) {
      out.push_back(c);
    }
  }
  return out;
}

/// Contents of the group opening at `s[open]`, or empty when unbalanced.
std::string_view group_at(std::string_view s, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < s.size();) {
    if (s.compare(i, 8, "operator") == 0) {
      i = operator_end(s, i);
      continue;
    }
    const char c = s[i++];
    if (c == '<' || c == '(') ++depth;
    if ((c == '>' || c == ')') && --depth == 0) return s.substr(open + 1, i - open - 2);
  }
  return {};
}

bool ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
}

/// Modules named by every `dpar::<module>::` in `s`, in order.
std::vector<std::string> dpar_scopes(std::string_view s) {
  std::vector<std::string> out;
  for (std::size_t i = s.find("dpar::"); i != std::string_view::npos;
       i = s.find("dpar::", i + 1)) {
    if (i > 0 && ident_char(s[i - 1])) continue;
    std::size_t j = i + 6;
    while (j < s.size() && ident_char(s[j])) ++j;
    if (j > i + 6 && s.compare(j, 2, "::") == 0) out.emplace_back(s.substr(i + 6, j - i - 6));
  }
  return out;
}

/// src/harness/experiment_pool lives in namespace dpar::bench.
std::string canonical(std::string m) { return m == "bench" ? "harness" : m; }

/// The module a demangled function name belongs to (see attribute()); the
/// empty string means none.
std::string module_of(std::string_view name) {
  const std::string path = scope_path(name);
  if (path.find("dpar::sim::UniqueFn::") != std::string::npos) {
    // UniqueFn<Sig>::UniqueFn<F>(F&&)::{lambda...}: the invoker, relocator
    // and destroyer thunks of F, whose body the compiler inlines into them.
    const std::size_t sig = name.find("dpar::sim::UniqueFn<");
    if (sig != std::string_view::npos) {
      const std::size_t after = sig + 19 + group_at(name, sig + 19).size() + 2;
      if (name.compare(after, 11, "::UniqueFn<") == 0) {
        const std::string wrapped = module_of(group_at(name, after + 10));
        if (!wrapped.empty()) return wrapped;
      }
    }
  }
  const std::vector<std::string> scopes = dpar_scopes(path);
  if (!scopes.empty()) return canonical(scopes.back());
  const std::vector<std::string> any = dpar_scopes(name);
  return any.empty() ? std::string() : canonical(any.front());
}

}  // namespace

Sampler::Sampler(std::size_t capacity) : buf_(capacity) {
  g_buf = buf_.data();
  g_cap = buf_.size();
  g_count = 0;
  g_dropped = 0;
  struct sigaction sa{};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, &g_old_action) != 0)
    throw std::runtime_error("sigaction(SIGPROF) failed");
  sigevent sev{};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  timer_t t;
  if (timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &t) != 0) {
    sigaction(SIGPROF, &g_old_action, nullptr);
    throw std::runtime_error("timer_create(CLOCK_THREAD_CPUTIME_ID) failed");
  }
  timer_ = t;
}

Sampler::~Sampler() {
  timer_delete(static_cast<timer_t>(timer_));
  sigaction(SIGPROF, &g_old_action, nullptr);
  g_buf = nullptr;
  g_cap = 0;
}

void Sampler::start() { arm(timer_, 4'000'000); }

void Sampler::stop() { arm(timer_, 0); }

std::vector<std::uintptr_t> Sampler::pcs() const {
  std::atomic_signal_fence(std::memory_order_seq_cst);
  return {buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(g_count.load())};
}

std::uint64_t Sampler::dropped() const { return g_dropped.load(); }

Attribution attribute(const std::vector<std::uintptr_t>& pcs, std::size_t top_n) {
  const ExeSymbols exe;
  Attribution a;
  a.total = pcs.size();
  std::map<long, std::uint64_t> per_symbol;
  for (const std::uintptr_t pc : pcs) {
    if (!exe.in_exe(pc)) {
      ++a.per_module["libs"];
    } else {
      ++per_symbol[exe.find(pc)];
    }
  }
  std::vector<std::pair<std::uint64_t, std::string>> symbols;
  for (const auto& [idx, n] : per_symbol) {
    const std::string name = idx < 0 ? std::string("?") : exe.demangled(idx);
    const std::string module = idx < 0 ? std::string() : module_of(name);
    a.per_module[module] += n;
    symbols.emplace_back(n, (module.empty() ? "-" : module) + "  " + name);
  }
  std::sort(symbols.begin(), symbols.end(), [](const auto& x, const auto& y) {
    return x.first != y.first ? x.first > y.first : x.second < y.second;
  });
  if (symbols.size() > top_n) symbols.resize(top_n);
  a.top_symbols = std::move(symbols);
  return a;
}

}  // namespace dpar_bench
