#include "vm/walker.hh"

#include "common/log.hh"
#include "common/profiler.hh"

namespace tempo {

Walker::Walker(Translator &translator, MmuCache &mmu)
    : table_(translator.table()), mmu_(mmu)
{
}

WalkPlan
Walker::plan(Addr vaddr)
{
    prof::Scope prof_scope(prof::Component::Walker);
    ++walks_;
    WalkStep steps[4];
    WalkPlan plan;
    const int count = table_.walkInto(vaddr, steps, plan.xlate);
    // deepestCached == L means the PT entry at level L is cached, so the
    // walk resumes at level L-1; 5 means start from the root (L4).
    const int deepest = mmu_.deepestCached(vaddr);

    for (int i = 0; i < count; ++i) {
        const WalkStep &step = steps[i];
        if (step.level < deepest) {
            plan.fetches.push_back(step);
            ++ptRefs_;
        } else {
            ++ptRefsSkipped_;
            ++plan.skipped;
        }
    }
    // An MMU-cache hit can only exist for entries a previous walk
    // traversed, so a planned walk always has at least the leaf fetch.
    TEMPO_ASSERT(!plan.fetches.empty(),
                 "MMU cache claims to hold a leaf translation");
    return plan;
}

void
Walker::finish(Addr vaddr, const WalkPlan &plan)
{
    // Every fetch except the last resolved a present upper-level entry.
    for (std::size_t i = 0; i + 1 < plan.fetches.size(); ++i) {
        const int level = plan.fetches[i].level;
        if (level >= 2 && level <= 4)
            mmu_.fill(vaddr, level);
    }
}

} // namespace tempo
