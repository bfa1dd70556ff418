/*
 * The native CDCL core behind repro.formal.sat.Solver.
 *
 * A line-for-line port of repro.formal.sat.PySolver: the same int arena
 * ([size, lbd, lit0, lit1, ...] per clause, offsets 0/1 a sentinel), the
 * same flattened (offset, blocker) watch lists, the same VSIDS heap with
 * the same tie-breaks, Luby restarts, first-UIP learning, LBD reduction
 * with a stable (lbd, size) sort, assumption-prefix trail reuse and
 * analyze-final cores.  Every deterministic counter therefore matches the
 * Python solver for the same call sequence, and so does every model and
 * core; tests/formal/test_sat_differential.py holds the two to that.
 *
 * Counters live in C and are written into the SolverStats object given to
 * the constructor whenever add_clause or solve returns (errors included).
 * Allocation failures raise MemoryError and leave the solver consistent;
 * arena offsets past int32 raise OverflowError; a pending signal
 * (Ctrl-C) is raised at the next restart, with the trail at level 0.
 *
 * The same module holds the AIG kernel (Aig, Encoder, Lifter; see its
 * section below) that runs the engine's Tseitin encoding and PDR cube
 * lifting directly on a core.
 *
 * Built on first use by repro/formal/_satbuild.py.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define L_UNASSIGNED 0
#define L_TRUE 1
#define L_FALSE (-1)

/* Learned clauses with an LBD at or below this are "glue": never deleted. */
#define GLUE_LBD 3

/* Dense watch-list index of a literal: 2v for +v, 2v+1 for -v. */
#define LIDX(lit) ((lit) > 0 ? ((size_t)(lit) << 1) \
                             : (((size_t)(-(int64_t)(lit)) << 1) | 1))
#define VAR(lit) ((lit) > 0 ? (lit) : -(lit))
#define LVAL(assign, lit) ((lit) > 0 ? (assign)[(lit)] : -(assign)[-(lit)])

typedef struct {
    int32_t *data;
    Py_ssize_t len;
    Py_ssize_t cap;
} IntVec;

static int
vec_reserve(IntVec *vec, Py_ssize_t extra)
{
    Py_ssize_t cap;
    int32_t *data;

    if (extra <= vec->cap - vec->len)
        return 0;
    cap = vec->cap ? vec->cap : 4;
    while (cap - vec->len < extra) {
        if (cap > PY_SSIZE_T_MAX / 2 / (Py_ssize_t)sizeof(int32_t)) {
            PyErr_NoMemory();
            return -1;
        }
        cap *= 2;
    }
    data = PyMem_Realloc(vec->data, (size_t)cap * sizeof(int32_t));
    if (data == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    vec->data = data;
    vec->cap = cap;
    return 0;
}

static int
vec_push(IntVec *vec, int32_t value)
{
    if (vec_reserve(vec, 1) < 0)
        return -1;
    vec->data[vec->len++] = value;
    return 0;
}

/* SolverStats counter names, in SolverStats.__slots__ order. */
enum {
    ST_CONFLICTS, ST_DECISIONS, ST_PROPAGATIONS, ST_RESTARTS,
    ST_LEARNED, ST_SOLVE_CALLS, ST_DELETED, ST_REDUCTIONS, ST_COUNT
};
static const char *const stat_names[ST_COUNT] = {
    "conflicts", "decisions", "propagations", "restarts",
    "learned_clauses", "solve_calls", "clauses_deleted", "reductions",
};
static PyObject *stat_keys[ST_COUNT];
static PyObject *wall_key;

typedef struct {
    PyObject_HEAD
    PyObject *stats;            /* the live SolverStats */
    PyObject *core;             /* list: assumption core of the last solve */

    int32_t num_vars;
    Py_ssize_t var_cap;         /* capacity of every per-variable array */
    int8_t *assign;             /* [var] */
    int32_t *level;             /* [var] */
    int32_t *reason;            /* [var] arena offset; 0 = no reason */
    uint8_t *phase;             /* [var] */
    double *activity;           /* [var] */
    uint8_t *seen;              /* [var] scratch, all zero between calls */
    int32_t *heap;              /* VSIDS max-heap of variables */
    int32_t *heap_pos;          /* [var] heap index, -1 = not in heap */
    Py_ssize_t heap_len;
    int32_t *trail;
    Py_ssize_t trail_len;
    int32_t *learnt;            /* analyze() output buffer */
    int32_t *stack;             /* analyze_final() DFS stack */
    int32_t *visited;           /* analyze_final() vars to unmark */
    int32_t *core_buf;          /* analyze_final() core literals */
    Py_ssize_t core_len;
    uint8_t *lit_mark;          /* [lit index] scratch, zero between calls */
    IntVec *watches;            /* [lit index] flattened (offset, blocker) */

    IntVec arena;
    Py_ssize_t arena_limit;     /* offsets must stay below this */
    IntVec learned;             /* live learned clause offsets */
    Py_ssize_t num_clauses;     /* problem clauses */
    IntVec trail_lim;
    IntVec assump_levels;
    IntVec assumps;             /* the current solve's assumptions */
    IntVec clause;              /* add_clause() scratch */
    uint32_t *level_stamp;      /* [level] distinct-level count for LBD */
    Py_ssize_t level_stamp_cap;
    uint32_t stamp;

    Py_ssize_t qhead;
    int ok;
    double var_inc;
    double var_decay;
    long long max_learnts;

    long long counters[ST_COUNT];
    long long synced[ST_COUNT];
    double wall_time_s;
    double synced_wall;
} Core;

/* ------------------------------------------------------------------------ */
/* Counters                                                                 */
/* ------------------------------------------------------------------------ */

static double
now_s(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

static int
sync_stats(Core *s)
{
    int i;
    PyObject *value;

    for (i = 0; i < ST_COUNT; i++) {
        if (s->counters[i] == s->synced[i])
            continue;
        value = PyLong_FromLongLong(s->counters[i]);
        if (value == NULL)
            return -1;
        if (PyObject_SetAttr(s->stats, stat_keys[i], value) < 0) {
            Py_DECREF(value);
            return -1;
        }
        Py_DECREF(value);
        s->synced[i] = s->counters[i];
    }
    if (s->wall_time_s != s->synced_wall) {
        value = PyFloat_FromDouble(s->wall_time_s);
        if (value == NULL)
            return -1;
        if (PyObject_SetAttr(s->stats, wall_key, value) < 0) {
            Py_DECREF(value);
            return -1;
        }
        Py_DECREF(value);
        s->synced_wall = s->wall_time_s;
    }
    return 0;
}

/* Publish the counters on the way out of a public call, error or not.
 * Steals `result` (NULL = an exception is pending). */
static PyObject *
finish(Core *s, PyObject *result)
{
    PyObject *type = NULL, *value = NULL, *tb = NULL;

    if (result == NULL)
        PyErr_Fetch(&type, &value, &tb);
    if (sync_stats(s) < 0) {
        Py_XDECREF(result);
        Py_XDECREF(type);
        Py_XDECREF(value);
        Py_XDECREF(tb);
        return NULL;
    }
    if (result == NULL)
        PyErr_Restore(type, value, tb);
    return result;
}

static PyObject *
bool_result(int value)
{
    if (value)
        Py_RETURN_TRUE;
    Py_RETURN_FALSE;
}

/* ------------------------------------------------------------------------ */
/* Storage                                                                  */
/* ------------------------------------------------------------------------ */

#define GROW(field, type, cap)                                              \
    do {                                                                    \
        type *grown = PyMem_Realloc(s->field, (size_t)(cap) * sizeof(type)); \
        if (grown == NULL) {                                                \
            PyErr_NoMemory();                                               \
            return -1;                                                      \
        }                                                                   \
        s->field = grown;                                                   \
    } while (0)

/* Make room for variables 0..`want` - 1 in every per-variable array. */
static int
reserve_vars(Core *s, Py_ssize_t want)
{
    Py_ssize_t cap, idx;

    if (want <= s->var_cap)
        return 0;
    cap = s->var_cap ? s->var_cap : 16;
    while (cap < want)
        cap *= 2;
    GROW(assign, int8_t, cap);
    GROW(level, int32_t, cap);
    GROW(reason, int32_t, cap);
    GROW(phase, uint8_t, cap);
    GROW(activity, double, cap);
    GROW(seen, uint8_t, cap);
    GROW(heap, int32_t, cap);
    GROW(heap_pos, int32_t, cap);
    GROW(trail, int32_t, cap);
    GROW(learnt, int32_t, cap);
    GROW(stack, int32_t, cap);
    GROW(visited, int32_t, cap);
    GROW(core_buf, int32_t, cap);
    GROW(lit_mark, uint8_t, 2 * cap);
    GROW(watches, IntVec, 2 * cap);
    for (idx = 2 * s->var_cap; idx < 2 * cap; idx++) {
        s->watches[idx].data = NULL;
        s->watches[idx].len = 0;
        s->watches[idx].cap = 0;
        s->lit_mark[idx] = 0;
    }
    for (idx = s->var_cap; idx < cap; idx++)
        s->seen[idx] = 0;
    s->var_cap = cap;
    return 0;
}

/* Open a decision level (the LBD stamp array tracks the level count). */
static int
new_level(Core *s)
{
    Py_ssize_t want = s->trail_lim.len + 2;

    if (want > s->level_stamp_cap) {
        Py_ssize_t cap = s->level_stamp_cap ? s->level_stamp_cap : 16;
        uint32_t *grown;
        while (cap < want)
            cap *= 2;
        grown = PyMem_Realloc(s->level_stamp, (size_t)cap * sizeof(uint32_t));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        memset(grown + s->level_stamp_cap, 0,
               (size_t)(cap - s->level_stamp_cap) * sizeof(uint32_t));
        s->level_stamp = grown;
        s->level_stamp_cap = cap;
    }
    return vec_push(&s->trail_lim, (int32_t)s->trail_len);
}

/* Room for a clause of `size` literals in the arena. */
static int
reserve_clause(Core *s, Py_ssize_t size)
{
    if (size + 2 > s->arena_limit - s->arena.len) {
        PyErr_SetString(PyExc_OverflowError,
                        "clause arena offsets would exceed the int32 range");
        return -1;
    }
    return vec_reserve(&s->arena, size + 2);
}

/* Append a clause to the (reserved) arena; returns its offset. */
static int32_t
alloc_clause(Core *s, const int32_t *lits, Py_ssize_t size, int32_t lbd)
{
    int32_t offset = (int32_t)s->arena.len;
    int32_t *slot = s->arena.data + offset;

    slot[0] = (int32_t)size;
    slot[1] = lbd;
    memcpy(slot + 2, lits, (size_t)size * sizeof(int32_t));
    s->arena.len += size + 2;
    return offset;
}

static int
reserve_watches(Core *s, int32_t a, int32_t b)
{
    if (vec_reserve(&s->watches[LIDX(-a)], 2) < 0)
        return -1;
    return vec_reserve(&s->watches[LIDX(-b)], 2);
}

/* Watch the (reserved) clause's two first literals; the blocker of each
 * watch is the clause's other watched literal. */
static void
attach(Core *s, int32_t offset)
{
    int32_t a = s->arena.data[offset + 2], b = s->arena.data[offset + 3];
    IntVec *wa = &s->watches[LIDX(-a)], *wb = &s->watches[LIDX(-b)];

    wa->data[wa->len++] = offset;
    wa->data[wa->len++] = b;
    wb->data[wb->len++] = offset;
    wb->data[wb->len++] = a;
}

/* ------------------------------------------------------------------------ */
/* VSIDS heap                                                               */
/* ------------------------------------------------------------------------ */

static void
heap_up(Core *s, Py_ssize_t idx)
{
    int32_t *heap = s->heap, *pos = s->heap_pos;
    const double *act = s->activity;
    int32_t var = heap[idx], pvar;
    double key = act[var];
    Py_ssize_t parent;

    while (idx > 0) {
        parent = (idx - 1) >> 1;
        pvar = heap[parent];
        if (act[pvar] >= key)
            break;
        heap[idx] = pvar;
        pos[pvar] = (int32_t)idx;
        idx = parent;
    }
    heap[idx] = var;
    pos[var] = (int32_t)idx;
}

static void
heap_down(Core *s, Py_ssize_t idx)
{
    int32_t *heap = s->heap, *pos = s->heap_pos;
    const double *act = s->activity;
    Py_ssize_t size = s->heap_len, left, right, child;
    int32_t var = heap[idx], cvar;
    double key = act[var];

    for (;;) {
        left = 2 * idx + 1;
        if (left >= size)
            break;
        right = left + 1;
        child = left;
        if (right < size && act[heap[right]] > act[heap[left]])
            child = right;
        cvar = heap[child];
        if (key >= act[cvar])
            break;
        heap[idx] = cvar;
        pos[cvar] = (int32_t)idx;
        idx = child;
    }
    heap[idx] = var;
    pos[var] = (int32_t)idx;
}

static void
heap_insert(Core *s, int32_t var)
{
    if (s->heap_pos[var] >= 0)
        return;
    s->heap[s->heap_len] = var;
    s->heap_pos[var] = (int32_t)s->heap_len;
    s->heap_len++;
    heap_up(s, s->heap_len - 1);
}

static int32_t
heap_pop(Core *s)
{
    int32_t top = s->heap[0], last = s->heap[--s->heap_len];

    s->heap_pos[top] = -1;
    if (s->heap_len) {
        s->heap[0] = last;
        s->heap_pos[last] = 0;
        heap_down(s, 0);
    }
    return top;
}

static void
bump_var(Core *s, int32_t var)
{
    double *activity = s->activity;
    int32_t v;

    activity[var] += s->var_inc;
    if (activity[var] > 1e100) {
        /* Uniform rescale preserves the heap order. */
        for (v = 1; v <= s->num_vars; v++)
            activity[v] *= 1e-100;
        s->var_inc *= 1e-100;
    }
    if (s->heap_pos[var] >= 0)
        heap_up(s, s->heap_pos[var]);
}

/* ------------------------------------------------------------------------ */
/* Assignment, propagation, backtracking                                    */
/* ------------------------------------------------------------------------ */

static int
enqueue(Core *s, int32_t lit, int32_t reason)
{
    int val = LVAL(s->assign, lit);
    int32_t var;

    if (val == L_FALSE)
        return 0;
    if (val == L_TRUE)
        return 1;
    var = VAR(lit);
    s->assign[var] = lit > 0 ? L_TRUE : L_FALSE;
    s->level[var] = (int32_t)s->trail_lim.len;
    s->reason[var] = reason;
    s->phase[var] = lit > 0;
    s->trail[s->trail_len++] = lit;
    return 1;
}

/* Unit propagation.  Sets *conflict to a conflicting clause offset or 0.
 * Returns -1 (MemoryError) when a moved watch cannot be stored; the
 * literal being visited is then re-queued, so the state stays sound. */
static int
propagate(Core *s, int32_t *conflict)
{
    int32_t *arena = s->arena.data, *level = s->level, *reason = s->reason;
    int32_t *trail = s->trail;
    int8_t *assign = s->assign;
    uint8_t *phase = s->phase;
    IntVec *watches = s->watches, *wl, *target;
    Py_ssize_t qhead = s->qhead, ntrail = s->trail_len, i, j, num;
    int32_t cur_level = (int32_t)s->trail_lim.len;
    long long propagations = 0;
    int32_t lit, blocker, c, size, first, cand, var, k, end, *ws;
    int fval, found;

    while (qhead < ntrail) {
        lit = trail[qhead++];
        propagations++;
        wl = &watches[LIDX(lit)];
        ws = wl->data;
        i = 0;
        j = 0;
        num = wl->len;
        while (i < num) {
            /* Blocker check: a true blocker means the clause is
             * satisfied; skip it without touching the arena. */
            blocker = ws[i + 1];
            if (LVAL(assign, blocker) == L_TRUE) {
                ws[j] = ws[i];
                ws[j + 1] = blocker;
                j += 2;
                i += 2;
                continue;
            }
            c = ws[i];
            i += 2;
            size = arena[c];
            if (size == 0)
                continue;       /* deleted: drop from this watch list */
            /* Normalize: the falsified watched literal goes to slot 1. */
            first = arena[c + 2];
            if (first == -lit) {
                first = arena[c + 3];
                arena[c + 2] = first;
                arena[c + 3] = -lit;
            }
            fval = LVAL(assign, first);
            if (fval == L_TRUE) {
                ws[j] = c;
                ws[j + 1] = first;
                j += 2;
                continue;
            }
            if (size > 2) {
                /* Search for a replacement watch. */
                found = 0;
                end = c + 2 + size;
                for (k = c + 4; k < end; k++) {
                    cand = arena[k];
                    if (LVAL(assign, cand) != L_FALSE) {
                        target = &watches[LIDX(-cand)];
                        if (vec_reserve(target, 2) < 0) {
                            ws[j] = c;
                            ws[j + 1] = first;
                            j += 2;
                            while (i < num)
                                ws[j++] = ws[i++];
                            wl->len = j;
                            s->trail_len = ntrail;
                            s->qhead = qhead - 1;
                            s->counters[ST_PROPAGATIONS] += propagations - 1;
                            return -1;
                        }
                        arena[c + 3] = cand;
                        arena[k] = -lit;
                        target->data[target->len++] = c;
                        target->data[target->len++] = first;
                        found = 1;
                        break;
                    }
                }
                if (found)
                    continue;
            }
            /* Binary clauses skip the search: unit (or conflicting) on
             * `first` as soon as their other watch falsifies. */
            ws[j] = c;
            ws[j + 1] = first;
            j += 2;
            if (fval == L_FALSE) {
                /* Conflict: keep the untraversed tail, stop. */
                while (i < num)
                    ws[j++] = ws[i++];
                wl->len = j;
                s->trail_len = ntrail;
                s->qhead = ntrail;
                s->counters[ST_PROPAGATIONS] += propagations;
                *conflict = c;
                return 0;
            }
            /* Clause is unit on `first`: assign inline. */
            var = VAR(first);
            assign[var] = first > 0 ? L_TRUE : L_FALSE;
            level[var] = cur_level;
            reason[var] = c;
            phase[var] = first > 0;
            trail[ntrail++] = first;
        }
        wl->len = j;
    }
    s->trail_len = ntrail;
    s->qhead = qhead;
    s->counters[ST_PROPAGATIONS] += propagations;
    *conflict = 0;
    return 0;
}

static void
cancel_until(Core *s, Py_ssize_t target)
{
    Py_ssize_t bound, idx;
    int32_t var;

    if (s->trail_lim.len <= target)
        return;
    bound = s->trail_lim.data[target];
    for (idx = s->trail_len - 1; idx >= bound; idx--) {
        var = VAR(s->trail[idx]);
        s->assign[var] = L_UNASSIGNED;
        s->reason[var] = 0;
        heap_insert(s, var);
    }
    s->trail_len = bound;
    s->trail_lim.len = target;
    if (s->assump_levels.len > target)
        s->assump_levels.len = target;
    s->qhead = s->trail_len;
}

static int32_t
pick_branch(Core *s)
{
    int32_t var;

    while (s->heap_len) {
        var = heap_pop(s);
        if (s->assign[var] == L_UNASSIGNED)
            return s->phase[var] ? var : -var;
    }
    return 0;
}

/* ------------------------------------------------------------------------ */
/* Conflict analysis                                                        */
/* ------------------------------------------------------------------------ */

/* First-UIP learning into s->learnt[0..*size); slot 0 is the asserting
 * literal, slot 1 (if any) the highest-level other literal. */
static void
analyze(Core *s, int32_t conflict, Py_ssize_t *size, int32_t *back_level,
        int32_t *lbd)
{
    const int32_t *arena = s->arena.data, *levels = s->level;
    const int32_t *trail = s->trail, *reasons = s->reason;
    uint8_t *seen = s->seen;
    int32_t *learnt = s->learnt;
    Py_ssize_t n = 1, trail_idx = s->trail_len - 1, begin, end, idx, max_i;
    int32_t cur_level = (int32_t)s->trail_lim.len, lit = 0, p, q, var;
    int32_t roff, tmp, count;
    long counter = 0;

    begin = conflict + 2;
    end = begin + arena[conflict];
    for (;;) {
        for (idx = begin; idx < end; idx++) {
            q = arena[idx];
            if (q == lit)
                continue;
            var = VAR(q);
            if (!seen[var] && levels[var] > 0) {
                seen[var] = 1;
                bump_var(s, var);
                if (levels[var] == cur_level)
                    counter++;
                else
                    learnt[n++] = q;
            }
        }
        /* Pick the next trail literal to resolve on. */
        for (;;) {
            p = trail[trail_idx];
            if (seen[VAR(p)])
                break;
            trail_idx--;
        }
        trail_idx--;
        var = VAR(p);
        seen[var] = 0;
        counter--;
        if (counter == 0) {
            learnt[0] = -p;
            break;
        }
        lit = p;
        roff = reasons[var];
        if (roff) {
            begin = roff + 2;
            end = begin + arena[roff];
        }
        else {
            begin = end = 0;
        }
    }
    for (idx = 1; idx < n; idx++)
        seen[VAR(learnt[idx])] = 0;
    /* Backtrack level: the second-highest level in the learnt clause. */
    if (n == 1) {
        *back_level = 0;
    }
    else {
        max_i = 1;
        for (idx = 2; idx < n; idx++)
            if (levels[VAR(learnt[idx])] > levels[VAR(learnt[max_i])])
                max_i = idx;
        tmp = learnt[1];
        learnt[1] = learnt[max_i];
        learnt[max_i] = tmp;
        *back_level = levels[VAR(learnt[1])];
    }
    /* LBD: the number of distinct levels among the learnt literals. */
    if (++s->stamp == 0) {
        memset(s->level_stamp, 0,
               (size_t)s->level_stamp_cap * sizeof(uint32_t));
        s->stamp = 1;
    }
    count = 0;
    for (idx = 0; idx < n; idx++) {
        int32_t lv = levels[VAR(learnt[idx])];
        if (s->level_stamp[lv] != s->stamp) {
            s->level_stamp[lv] = s->stamp;
            count++;
        }
    }
    *size = n;
    *lbd = count;
}

/* Walk the implication graph from a failed assumption back to the
 * assumption decisions it depends on (MiniSat's analyzeFinal). */
static void
analyze_final(Core *s, int32_t failed_lit)
{
    const int32_t *arena = s->arena.data;
    uint8_t *seen = s->seen, *mark = s->lit_mark;
    int32_t *stack = s->stack, *visited = s->visited, *core = s->core_buf;
    Py_ssize_t depth = 0, nvisited = 0, ncore = 0, idx, end;
    int32_t var, lit, roff, other;

    for (idx = 0; idx < s->assumps.len; idx++)
        mark[LIDX(s->assumps.data[idx])] = 1;
    core[ncore++] = failed_lit;
    var = VAR(failed_lit);
    seen[var] = 1;
    visited[nvisited++] = var;
    stack[depth++] = var;
    while (depth) {
        var = stack[--depth];
        if (s->level[var] == 0)
            continue;
        roff = s->reason[var];
        if (!roff) {
            lit = s->assign[var] == L_TRUE ? var : -var;
            if (mark[LIDX(lit)] && lit != failed_lit)
                core[ncore++] = lit;
            continue;
        }
        end = roff + 2 + arena[roff];
        for (idx = roff + 2; idx < end; idx++) {
            other = VAR(arena[idx]);
            if (other != var && !seen[other]) {
                seen[other] = 1;
                visited[nvisited++] = other;
                stack[depth++] = other;
            }
        }
    }
    for (idx = 0; idx < nvisited; idx++)
        seen[visited[idx]] = 0;
    for (idx = 0; idx < s->assumps.len; idx++)
        mark[LIDX(s->assumps.data[idx])] = 0;
    s->core_len = ncore;
}

/* ------------------------------------------------------------------------ */
/* Learned-clause reduction                                                 */
/* ------------------------------------------------------------------------ */

typedef struct {
    int32_t lbd;
    int32_t size;
    Py_ssize_t pos;
    int32_t offset;
} Ranked;

static int
ranked_cmp(const void *left, const void *right)
{
    const Ranked *a = left, *b = right;

    if (a->lbd != b->lbd)
        return a->lbd < b->lbd ? -1 : 1;
    if (a->size != b->size)
        return a->size < b->size ? -1 : 1;
    /* Equal keys keep their list order: a stable sort, as in Python. */
    return a->pos < b->pos ? -1 : (a->pos > b->pos);
}

/* Delete the worst half of the deletable learned clauses: glue clauses
 * and current reasons stay, the rest is ranked by (LBD, size). */
static int
reduce_db(Core *s)
{
    int32_t *arena = s->arena.data;
    Py_ssize_t n = s->learned.len, nkeep = 0, ndel = 0, half, idx;
    int32_t c, first;
    int32_t *keep;
    Ranked *ranked;

    keep = PyMem_Malloc((size_t)(n ? n : 1) * sizeof(int32_t));
    ranked = PyMem_Malloc((size_t)(n ? n : 1) * sizeof(Ranked));
    if (keep == NULL || ranked == NULL) {
        PyMem_Free(keep);
        PyMem_Free(ranked);
        PyErr_NoMemory();
        return -1;
    }
    for (idx = 0; idx < n; idx++) {
        c = s->learned.data[idx];
        if (arena[c] == 0)
            continue;
        first = arena[c + 2];
        if (arena[c + 1] <= GLUE_LBD || s->reason[VAR(first)] == c) {
            keep[nkeep++] = c;
        }
        else {
            ranked[ndel].lbd = arena[c + 1];
            ranked[ndel].size = arena[c];
            ranked[ndel].pos = ndel;
            ranked[ndel].offset = c;
            ndel++;
        }
    }
    qsort(ranked, (size_t)ndel, sizeof(Ranked), ranked_cmp);
    half = ndel / 2;
    for (idx = half; idx < ndel; idx++) {
        arena[ranked[idx].offset] = 0;
        s->counters[ST_DELETED]++;
    }
    memcpy(s->learned.data, keep, (size_t)nkeep * sizeof(int32_t));
    for (idx = 0; idx < half; idx++)
        s->learned.data[nkeep + idx] = ranked[idx].offset;
    s->learned.len = nkeep + half;
    s->max_learnts = (long long)((double)s->max_learnts * 1.2);
    s->counters[ST_REDUCTIONS]++;
    PyMem_Free(keep);
    PyMem_Free(ranked);
    return 0;
}

/* ------------------------------------------------------------------------ */
/* Search                                                                   */
/* ------------------------------------------------------------------------ */

static long long
luby(long long i)
{
    long long x = i - 1, size = 1, seq = 0;

    while (size < x + 1) {
        seq++;
        size = 2 * size + 1;
    }
    while (size - 1 != x) {
        size = (size - 1) >> 1;
        seq--;
        x = x % size;
    }
    return 1LL << seq;
}

enum { S_ERROR = -1, S_UNSAT = 0, S_SAT = 1, S_RESTART = 2 };

/* Run CDCL until SAT/UNSAT or until `budget` conflicts (restart). */
static int
search(Core *s, long long budget)
{
    long long conflicts = 0;
    int32_t conflict, conflict_level, lit_level, back_level, lbd, offset, lit;
    Py_ssize_t idx, end, size;
    int val;

    for (;;) {
        if (propagate(s, &conflict) < 0)
            return S_ERROR;
        if (conflict) {
            conflicts++;
            s->counters[ST_CONFLICTS]++;
            if (s->trail_lim.len == 0) {
                s->ok = 0;
                return S_UNSAT;
            }
            /* Batched assumption establishment can surface a conflict
             * whose literals all sit below the current decision level;
             * drop to the conflict's own (maximum-literal) level first. */
            conflict_level = 0;
            end = conflict + 2 + s->arena.data[conflict];
            for (idx = conflict + 2; idx < end; idx++) {
                lit_level = s->level[VAR(s->arena.data[idx])];
                if (lit_level > conflict_level)
                    conflict_level = lit_level;
            }
            if (conflict_level == 0) {
                s->ok = 0;
                return S_UNSAT;
            }
            if (conflict_level < s->trail_lim.len)
                cancel_until(s, conflict_level);
            analyze(s, conflict, &size, &back_level, &lbd);
            cancel_until(s, back_level);
            if (size == 1) {
                cancel_until(s, 0);
                if (!enqueue(s, s->learnt[0], 0)) {
                    s->ok = 0;
                    return S_UNSAT;
                }
                if (propagate(s, &conflict) < 0)
                    return S_ERROR;
                if (conflict) {
                    s->ok = 0;
                    return S_UNSAT;
                }
            }
            else {
                if (reserve_clause(s, size) < 0
                        || vec_reserve(&s->learned, 1) < 0
                        || reserve_watches(s, s->learnt[0], s->learnt[1]) < 0)
                    return S_ERROR;
                offset = alloc_clause(s, s->learnt, size, lbd);
                s->learned.data[s->learned.len++] = offset;
                s->counters[ST_LEARNED]++;
                attach(s, offset);
                enqueue(s, s->learnt[0], offset);
                if (s->learned.len >= s->max_learnts && reduce_db(s) < 0)
                    return S_ERROR;
            }
            s->var_inc /= s->var_decay;
            if (conflicts >= budget)
                return S_RESTART;
        }
        else {
            /* Establish every pending assumption, one decision level
             * each, then ONE propagation pass over the whole batch (see
             * PySolver._search). */
            if (s->trail_lim.len < s->assumps.len) {
                while (s->trail_lim.len < s->assumps.len) {
                    lit = s->assumps.data[s->trail_lim.len];
                    val = LVAL(s->assign, lit);
                    if (val == L_FALSE) {
                        analyze_final(s, lit);
                        return S_UNSAT;
                    }
                    /* A dummy level when already true keeps positions
                     * aligned. */
                    if (vec_reserve(&s->assump_levels, 1) < 0
                            || new_level(s) < 0)
                        return S_ERROR;
                    s->assump_levels.data[s->assump_levels.len++] = lit;
                    if (val == L_UNASSIGNED) {
                        s->counters[ST_DECISIONS]++;
                        enqueue(s, lit, 0);
                    }
                }
                continue;
            }
            lit = pick_branch(s);
            if (lit == 0)
                return S_SAT;
            if (new_level(s) < 0) {
                heap_insert(s, VAR(lit));
                return S_ERROR;
            }
            s->counters[ST_DECISIONS]++;
            enqueue(s, lit, 0);
        }
    }
}

/* ------------------------------------------------------------------------ */
/* Python interface                                                         */
/* ------------------------------------------------------------------------ */

/* Classify a literal argument, storing a valid one in *lit. */
enum { LIT_ERROR = -1, LIT_VALID, LIT_ZERO, LIT_RANGE };

static int
read_literal(Core *s, PyObject *item, int32_t *lit)
{
    int overflow = 0;
    long value = PyLong_AsLongAndOverflow(item, &overflow);

    if (value == -1 && !overflow && PyErr_Occurred())
        return LIT_ERROR;
    if (overflow || value < -(long)s->num_vars || value > (long)s->num_vars)
        return LIT_RANGE;
    if (value == 0)
        return LIT_ZERO;
    *lit = (int32_t)value;
    return LIT_VALID;
}

static PyObject *
Core_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"stats", NULL};
    PyObject *stats;
    Core *s;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:Solver", kwlist, &stats))
        return NULL;
    s = (Core *)type->tp_alloc(type, 0);
    if (s == NULL)
        return NULL;
    Py_INCREF(stats);
    s->stats = stats;
    s->core = PyList_New(0);
    if (s->core == NULL)
        goto fail;
    s->ok = 1;
    s->var_inc = 1.0;
    s->var_decay = 0.95;
    s->max_learnts = 4000;
    s->arena_limit = INT32_MAX;
    if (reserve_vars(s, 1) < 0)
        goto fail;
    /* Variable 0 is a placeholder, as in PySolver's lists. */
    s->assign[0] = L_UNASSIGNED;
    s->level[0] = 0;
    s->reason[0] = 0;
    s->phase[0] = 0;
    s->activity[0] = 0.0;
    s->heap_pos[0] = -1;
    /* Offsets 0/1 are a sentinel so that offset 0 can mean "no clause". */
    if (vec_push(&s->arena, 0) < 0 || vec_push(&s->arena, 0) < 0)
        goto fail;
    return (PyObject *)s;
fail:
    Py_DECREF(s);
    return NULL;
}

static void
Core_dealloc(Core *s)
{
    Py_ssize_t idx;

    Py_XDECREF(s->stats);
    Py_XDECREF(s->core);
    if (s->watches != NULL)
        for (idx = 0; idx < 2 * s->var_cap; idx++)
            PyMem_Free(s->watches[idx].data);
    PyMem_Free(s->watches);
    PyMem_Free(s->assign);
    PyMem_Free(s->level);
    PyMem_Free(s->reason);
    PyMem_Free(s->phase);
    PyMem_Free(s->activity);
    PyMem_Free(s->seen);
    PyMem_Free(s->heap);
    PyMem_Free(s->heap_pos);
    PyMem_Free(s->trail);
    PyMem_Free(s->learnt);
    PyMem_Free(s->stack);
    PyMem_Free(s->visited);
    PyMem_Free(s->core_buf);
    PyMem_Free(s->lit_mark);
    PyMem_Free(s->level_stamp);
    PyMem_Free(s->arena.data);
    PyMem_Free(s->learned.data);
    PyMem_Free(s->trail_lim.data);
    PyMem_Free(s->assump_levels.data);
    PyMem_Free(s->assumps.data);
    PyMem_Free(s->clause.data);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

/* Allocate a fresh variable; returns it, or -1 with an exception set. */
static int32_t
core_new_var(Core *s)
{
    int32_t var;

    if (s->num_vars >= INT32_MAX - 1) {
        PyErr_SetString(PyExc_OverflowError, "too many variables");
        return -1;
    }
    if (reserve_vars(s, (Py_ssize_t)s->num_vars + 2) < 0)
        return -1;
    var = ++s->num_vars;
    s->assign[var] = L_UNASSIGNED;
    s->level[var] = 0;
    s->reason[var] = 0;
    s->phase[var] = 0;
    s->activity[var] = 0.0;
    s->heap_pos[var] = -1;
    heap_insert(s, var);
    return var;
}

static PyObject *
Core_new_var(Core *s, PyObject *Py_UNUSED(ignored))
{
    int32_t var = core_new_var(s);

    return var < 0 ? NULL : PyLong_FromLong(var);
}

/* add_clause in three steps, shared by the Python method and the AIG
 * encoder: clause_begin, clause_lit per (range-checked) literal until it
 * reports the clause satisfied, then clause_end. */

/* Drop add_clause's duplicate marks. */
static void
clear_marks(Core *s)
{
    Py_ssize_t idx;

    for (idx = 0; idx < s->clause.len; idx++)
        s->lit_mark[LIDX(s->clause.data[idx])] = 0;
}

/* Only for a solver that is still ok. */
static void
clause_begin(Core *s)
{
    cancel_until(s, 0);
    s->clause.len = 0;
}

/* Returns 1 when the clause is satisfied at the root (a tautology or a
 * true literal; the marks are then cleared and the clause is done), 0 to
 * go on, -1 on error (marks cleared). */
static int
clause_lit(Core *s, int32_t lit)
{
    int val;

    if (s->lit_mark[LIDX(-lit)]) {
        clear_marks(s);
        return 1;               /* tautology: trivially satisfied */
    }
    if (s->lit_mark[LIDX(lit)])
        return 0;
    val = LVAL(s->assign, lit);
    if (val == L_TRUE) {
        clear_marks(s);
        return 1;               /* already satisfied at root level */
    }
    if (val == L_FALSE)
        return 0;               /* falsified at root: drop the literal */
    if (vec_push(&s->clause, lit) < 0) {
        clear_marks(s);
        return -1;
    }
    s->lit_mark[LIDX(lit)] = 1;
    return 0;
}

/* Store the collected clause.  Returns 1 (ok), 0 (the formula became
 * trivially UNSAT) or -1 (error). */
static int
clause_end(Core *s)
{
    int32_t conflict, offset;

    clear_marks(s);
    if (s->clause.len == 0) {
        s->ok = 0;
        return 0;
    }
    if (s->clause.len == 1) {
        if (!enqueue(s, s->clause.data[0], 0)) {
            s->ok = 0;
            return 0;
        }
        if (propagate(s, &conflict) < 0)
            return -1;
        if (conflict) {
            s->ok = 0;
            return 0;
        }
        return 1;
    }
    if (reserve_clause(s, s->clause.len) < 0
            || reserve_watches(s, s->clause.data[0], s->clause.data[1]) < 0)
        return -1;
    offset = alloc_clause(s, s->clause.data, s->clause.len, 0);
    s->num_clauses++;
    attach(s, offset);
    return 1;
}

static PyObject *
Core_add_clause(Core *s, PyObject *lits)
{
    PyObject *seq, *item;
    Py_ssize_t idx;
    int32_t lit;
    int kind, status;

    if (!s->ok)
        Py_RETURN_FALSE;
    clause_begin(s);
    seq = PySequence_Fast(lits, "clause literals must be iterable");
    if (seq == NULL)
        return NULL;
    for (idx = 0; idx < PySequence_Fast_GET_SIZE(seq); idx++) {
        item = PySequence_Fast_GET_ITEM(seq, idx);
        Py_INCREF(item);
        kind = read_literal(s, item, &lit);
        if (kind != LIT_VALID) {
            if (kind != LIT_ERROR)
                PyErr_Format(PyExc_ValueError, "invalid literal %R", item);
            Py_DECREF(item);
            clear_marks(s);
            Py_DECREF(seq);
            return NULL;
        }
        Py_DECREF(item);
        status = clause_lit(s, lit);
        if (status != 0) {
            Py_DECREF(seq);
            if (status < 0)
                return NULL;
            Py_RETURN_TRUE;
        }
    }
    Py_DECREF(seq);
    status = clause_end(s);
    return finish(s, status < 0 ? NULL : bool_result(status));
}

static PyObject *
Core_value(Core *s, PyObject *arg)
{
    int32_t lit;
    int val;

    switch (read_literal(s, arg, &lit)) {
    case LIT_ERROR:
        return NULL;
    case LIT_ZERO:
        Py_RETURN_NONE;         /* variable 0 is the unassigned placeholder */
    case LIT_RANGE:
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return NULL;
    }
    val = LVAL(s->assign, lit);
    if (val == L_UNASSIGNED)
        Py_RETURN_NONE;
    return bool_result(val == L_TRUE);
}

static PyObject *
Core_model(Core *s, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyList_New(0), *item;
    int32_t var;

    if (out == NULL)
        return NULL;
    for (var = 1; var <= s->num_vars; var++) {
        if (s->assign[var] == L_UNASSIGNED)
            continue;
        item = PyLong_FromLong(s->assign[var] == L_TRUE ? var : -var);
        if (item == NULL || PyList_Append(out, item) < 0) {
            Py_XDECREF(item);
            Py_DECREF(out);
            return NULL;
        }
        Py_DECREF(item);
    }
    return out;
}

static PyObject *
build_core(Core *s)
{
    PyObject *out = PyList_New(s->core_len), *item;
    Py_ssize_t idx;

    if (out == NULL)
        return NULL;
    for (idx = 0; idx < s->core_len; idx++) {
        item = PyLong_FromLong(s->core_buf[idx]);
        if (item == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, idx, item);
    }
    return out;
}

static PyObject *
Core_solve(Core *s, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"assumptions", NULL};
    PyObject *assumptions = NULL, *seq, *item, *core;
    Py_ssize_t idx, keep;
    long long restart_num;
    double begin;
    int32_t lit;
    int kind, status;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O:solve", kwlist,
                                     &assumptions))
        return NULL;
    begin = now_s();
    s->counters[ST_SOLVE_CALLS]++;
    core = PyList_New(0);
    if (core == NULL)
        return finish(s, NULL);
    Py_SETREF(s->core, core);
    if (!s->ok) {
        s->wall_time_s += now_s() - begin;
        return finish(s, bool_result(0));
    }
    s->assumps.len = 0;
    if (assumptions != NULL) {
        seq = PySequence_Fast(assumptions, "assumptions must be iterable");
        if (seq == NULL)
            return finish(s, NULL);
        for (idx = 0; idx < PySequence_Fast_GET_SIZE(seq); idx++) {
            item = PySequence_Fast_GET_ITEM(seq, idx);
            Py_INCREF(item);
            kind = read_literal(s, item, &lit);
            if (kind != LIT_VALID) {
                if (kind != LIT_ERROR)
                    PyErr_Format(PyExc_ValueError,
                                 "invalid assumption literal %R", item);
                Py_DECREF(item);
                Py_DECREF(seq);
                s->assumps.len = 0;
                return finish(s, NULL);
            }
            Py_DECREF(item);
            if (vec_push(&s->assumps, lit) < 0) {
                Py_DECREF(seq);
                s->assumps.len = 0;
                return finish(s, NULL);
            }
        }
        Py_DECREF(seq);
    }
    /* Assumption-prefix trail reuse. */
    keep = 0;
    for (idx = 0; idx < s->assumps.len; idx++) {
        if (keep < s->assump_levels.len
                && s->assump_levels.data[keep] == s->assumps.data[idx])
            keep++;
        else
            break;
    }
    cancel_until(s, keep);
    s->core_len = 0;
    for (restart_num = 1;; restart_num++) {
        status = search(s, 100 * luby(restart_num));
        if (status != S_RESTART)
            break;
        s->counters[ST_RESTARTS]++;
        cancel_until(s, 0);
        if (PyErr_CheckSignals() < 0) {
            status = S_ERROR;
            break;
        }
    }
    s->wall_time_s += now_s() - begin;
    if (status == S_ERROR)
        return finish(s, NULL);
    if (status == S_UNSAT && s->core_len) {
        core = build_core(s);
        if (core == NULL)
            return finish(s, NULL);
        Py_SETREF(s->core, core);
    }
    return finish(s, bool_result(status == S_SAT));
}

static PyObject *
Core_get_num_vars(Core *s, void *closure)
{
    return PyLong_FromLong(s->num_vars);
}

static PyObject *
Core_get_num_clauses(Core *s, void *closure)
{
    return PyLong_FromSsize_t(s->num_clauses);
}

static PyObject *
Core_get_num_learned(Core *s, void *closure)
{
    return PyLong_FromSsize_t(s->learned.len);
}

static PyObject *
Core_get_arena_ints(Core *s, void *closure)
{
    return PyLong_FromSsize_t(s->arena.len);
}

static PyObject *
Core_get_core(Core *s, void *closure)
{
    Py_INCREF(s->core);
    return s->core;
}

static PyObject *
Core_get_stats(Core *s, void *closure)
{
    Py_INCREF(s->stats);
    return s->stats;
}

static PyObject *
Core_get_max_learnts(Core *s, void *closure)
{
    return PyLong_FromLongLong(s->max_learnts);
}

static int
Core_set_max_learnts(Core *s, PyObject *value, void *closure)
{
    long long limit;

    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete _max_learnts");
        return -1;
    }
    limit = PyLong_AsLongLong(value);
    if (limit == -1 && PyErr_Occurred())
        return -1;
    s->max_learnts = limit;
    return 0;
}

static PyObject *
Core_get_arena_limit(Core *s, void *closure)
{
    return PyLong_FromSsize_t(s->arena_limit);
}

static int
Core_set_arena_limit(Core *s, PyObject *value, void *closure)
{
    Py_ssize_t limit;

    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete _arena_limit");
        return -1;
    }
    limit = PyLong_AsSsize_t(value);
    if (limit == -1 && PyErr_Occurred())
        return -1;
    if (limit < 0 || limit > INT32_MAX) {
        PyErr_SetString(PyExc_ValueError,
                        "_arena_limit must be within the int32 range");
        return -1;
    }
    s->arena_limit = limit;
    return 0;
}

static PyMethodDef Core_methods[] = {
    {"new_var", (PyCFunction)Core_new_var, METH_NOARGS,
     "Allocate a fresh variable and return its positive literal."},
    {"add_clause", (PyCFunction)Core_add_clause, METH_O,
     "Add a clause; returns False if the formula became trivially UNSAT."},
    {"value", (PyCFunction)Core_value, METH_O,
     "Model value of a literal after a satisfiable solve() call."},
    {"model", (PyCFunction)Core_model, METH_NOARGS,
     "The satisfying assignment as a list of signed literals."},
    {"solve", (PyCFunction)(void (*)(void))Core_solve,
     METH_VARARGS | METH_KEYWORDS,
     "Decide satisfiability under the given assumption literals."},
    {NULL, NULL, 0, NULL}
};

static PyGetSetDef Core_getset[] = {
    {"num_vars", (getter)Core_get_num_vars, NULL, NULL, NULL},
    {"num_clauses", (getter)Core_get_num_clauses, NULL, NULL, NULL},
    {"num_learned", (getter)Core_get_num_learned, NULL, NULL, NULL},
    {"arena_ints", (getter)Core_get_arena_ints, NULL,
     "Length of the clause arena in ints (dead slots included).", NULL},
    {"core", (getter)Core_get_core, NULL,
     "Assumption core of the last UNSAT solve() (else empty).", NULL},
    {"stats", (getter)Core_get_stats, NULL, "The live SolverStats.", NULL},
    {"_max_learnts", (getter)Core_get_max_learnts,
     (setter)Core_set_max_learnts, NULL, NULL},
    {"_arena_limit", (getter)Core_get_arena_limit,
     (setter)Core_set_arena_limit,
     "Arena size bound (int32 range); lowered only to test the guard.",
     NULL},
    {NULL, NULL, NULL, NULL, NULL}
};

static PyTypeObject CoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.formal._satcore.Solver",
    .tp_doc = "Native CDCL core with PySolver's interface: Solver(stats).",
    .tp_basicsize = sizeof(Core),
    .tp_itemsize = 0,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = Core_new,
    .tp_dealloc = (destructor)Core_dealloc,
    .tp_methods = Core_methods,
    .tp_getset = Core_getset,
};

/* ------------------------------------------------------------------------ */
/* AIG kernel: Tseitin encoding and ternary cube lifting                    */
/* ------------------------------------------------------------------------ */

/*
 * Each repro.formal.cnf.Unroller on a native core hands its system's AIG
 * over once, as int arrays indexed by node >> 1 (Aig, re-synced only when
 * the graph grows), and the engine's two AIG walks run on it:
 *
 *   Encoder  Unroller._encode_node's iterative post-order Tseitin walk,
 *            with the same new_var and add_clause order.  A latch the walk
 *            meets unencoded goes back to Python: encode() or resume()
 *            returns None and `pending` names the latch; Unroller._latch_sat
 *            materializes it, then resume() continues the same walk.
 *            Walks nest (_latch_sat encodes other frames meanwhile), so
 *            the open walks form a stack.
 *   Lifter   Pdr._lift_cube's incremental ternary simulation, reading the
 *            model straight from the core's assignment.
 *
 * Both give exactly what the Python bodies give (the same variables,
 * clauses and gate maps; the same cube), which
 * tests/formal/test_aig_kernel.py checks.
 */

#define T_X 2

enum { K_INPUT, K_AND, K_LATCH };

typedef struct {
    PyObject_HEAD
    long next_node;             /* the AIG's _next_node at the last sync */
    Py_ssize_t size;            /* node slots: next_node >> 1 */
    int32_t *lhs;               /* [slot] fanin literals of an AND node */
    int32_t *rhs;
    uint8_t *kind;              /* [slot] K_INPUT, K_AND or K_LATCH */
} Aig;

static PyTypeObject AigType;

/* Grow a per-slot array to `cap` entries, zero-filling the new ones. */
static int
grow_zeroed(void **data, Py_ssize_t old_cap, Py_ssize_t cap, size_t item)
{
    char *grown = PyMem_Realloc(*data, (size_t)cap * item);

    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memset(grown + (size_t)old_cap * item, 0,
           (size_t)(cap - old_cap) * item);
    *data = grown;
    return 0;
}

static PyObject *
Aig_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {NULL};

    if (!PyArg_ParseTupleAndKeywords(args, kwds, ":Aig", kwlist))
        return NULL;
    return type->tp_alloc(type, 0);
}

static void
Aig_dealloc(Aig *g)
{
    PyMem_Free(g->lhs);
    PyMem_Free(g->rhs);
    PyMem_Free(g->kind);
    Py_TYPE(g)->tp_free((PyObject *)g);
}

static PyObject *
Aig_sync(Aig *g, PyObject *args)
{
    PyObject *and_of, *latches, *key, *pair, *seq;
    long next_node, node, lhs, rhs;
    Py_ssize_t pos = 0, size, idx;

    if (!PyArg_ParseTuple(args, "O!Ol:sync", &PyDict_Type, &and_of,
                          &latches, &next_node))
        return NULL;
    if (next_node < 2 || next_node > INT32_MAX || next_node & 1) {
        PyErr_SetString(PyExc_ValueError, "next_node out of range");
        return NULL;
    }
    size = next_node >> 1;
    if (size < g->size) {
        PyErr_SetString(PyExc_ValueError, "an AIG never shrinks");
        return NULL;
    }
    g->next_node = 0;           /* until the arrays are complete */
    if (size > g->size) {
        if (grow_zeroed((void **)&g->lhs, g->size, size, sizeof(int32_t)) < 0
                || grow_zeroed((void **)&g->rhs, g->size, size,
                               sizeof(int32_t)) < 0
                || grow_zeroed((void **)&g->kind, g->size, size, 1) < 0)
            return NULL;
    }
    g->size = size;
    memset(g->kind, K_INPUT, (size_t)size);
    while (PyDict_Next(and_of, &pos, &key, &pair)) {
        node = PyLong_AsLong(key);
        if (node == -1 && PyErr_Occurred())
            return NULL;
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_TypeError, "AND fanins must be a pair");
            return NULL;
        }
        lhs = PyLong_AsLong(PyTuple_GET_ITEM(pair, 0));
        if (lhs == -1 && PyErr_Occurred())
            return NULL;
        rhs = PyLong_AsLong(PyTuple_GET_ITEM(pair, 1));
        if (rhs == -1 && PyErr_Occurred())
            return NULL;
        /* Fanins precede their gate, so ascending ids are topological. */
        if (node < 2 || node & 1 || node >= next_node || lhs < 0
                || rhs < 0 || lhs >> 1 >= node >> 1 || rhs >> 1 >= node >> 1) {
            PyErr_Format(PyExc_ValueError, "malformed AND node %ld", node);
            return NULL;
        }
        g->kind[node >> 1] = K_AND;
        g->lhs[node >> 1] = (int32_t)lhs;
        g->rhs[node >> 1] = (int32_t)rhs;
    }
    seq = PySequence_Fast(latches, "latch nodes must be iterable");
    if (seq == NULL)
        return NULL;
    for (idx = 0; idx < PySequence_Fast_GET_SIZE(seq); idx++) {
        node = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, idx));
        if (node == -1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return NULL;
        }
        if (node < 2 || node & 1 || node >= next_node
                || g->kind[node >> 1] == K_AND) {
            PyErr_Format(PyExc_ValueError, "malformed latch node %ld", node);
            Py_DECREF(seq);
            return NULL;
        }
        g->kind[node >> 1] = K_LATCH;
    }
    Py_DECREF(seq);
    g->next_node = next_node;
    Py_RETURN_NONE;
}

static PyObject *
Aig_get_next_node(Aig *g, void *closure)
{
    return PyLong_FromLong(g->next_node);
}

static PyMethodDef Aig_methods[] = {
    {"sync", (PyCFunction)Aig_sync, METH_VARARGS,
     "sync(and_of, latch_nodes, next_node): load the graph (AIG._and_of, "
     "the system's latch nodes, AIG._next_node)."},
    {NULL, NULL, 0, NULL}
};

static PyGetSetDef Aig_getset[] = {
    {"next_node", (getter)Aig_get_next_node, NULL,
     "AIG._next_node at the last sync (0 before the first).", NULL},
    {NULL, NULL, NULL, NULL, NULL}
};

static PyTypeObject AigType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.formal._satcore.Aig",
    .tp_doc = "A transition system's AIG as int arrays: Aig(), then sync().",
    .tp_basicsize = sizeof(Aig),
    .tp_itemsize = 0,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = Aig_new,
    .tp_dealloc = (destructor)Aig_dealloc,
    .tp_methods = Aig_methods,
    .tp_getset = Aig_getset,
};

/* ---- Encoder ----------------------------------------------------------- */

typedef struct {
    int32_t *sat;               /* [slot] SAT literal; 0 = not known here */
    Py_ssize_t cap;
    PyObject *inputs;           /* the frame's input_sat dict */
} EncFrame;

typedef struct {
    PyObject_HEAD
    Aig *aig;
    Core *core;
    int32_t true_sat;
    EncFrame *frames;
    Py_ssize_t num_frames;
    Py_ssize_t frames_cap;
    IntVec stack;               /* nodes to encode, shared by nested walks */
    IntVec walks;               /* (stack base, frame, root) per open walk */
    int32_t pending;            /* the latch the last request asked for */
} Encoder;

static int
frame_store(EncFrame *f, Py_ssize_t slot, int32_t lit, Py_ssize_t size)
{
    if (slot >= f->cap) {
        Py_ssize_t cap = size > slot ? size : slot + 1;
        if (grow_zeroed((void **)&f->sat, f->cap, cap, sizeof(int32_t)) < 0)
            return -1;
        f->cap = cap;
    }
    f->sat[slot] = lit;
    return 0;
}

/* The SAT literal of `node` in frame `f`, or 0 when it has none yet.
 * Gates live in f->sat only; inputs and latches are read through from the
 * frame's input_sat dict (where Python writes them) and cached.  Returns
 * -1 on error. */
static int
frame_lookup(Encoder *e, EncFrame *f, int32_t node, int32_t *out)
{
    Py_ssize_t slot = node >> 1;
    PyObject *key, *item;
    long lit;

    if (slot < f->cap && f->sat[slot]) {
        *out = f->sat[slot];
        return 0;
    }
    *out = 0;
    if (e->aig->kind[slot] == K_AND)
        return 0;
    key = PyLong_FromLong(node);
    if (key == NULL)
        return -1;
    item = PyDict_GetItemWithError(f->inputs, key);
    Py_DECREF(key);
    if (item == NULL)
        return PyErr_Occurred() ? -1 : 0;
    lit = PyLong_AsLong(item);
    if (lit == -1 && PyErr_Occurred())
        return -1;
    if (lit == 0 || lit > e->core->num_vars || lit < -e->core->num_vars) {
        PyErr_Format(PyExc_ValueError,
                     "input_sat maps node %d to invalid literal %ld",
                     node, lit);
        return -1;
    }
    if (frame_store(f, slot, (int32_t)lit, e->aig->size) < 0)
        return -1;
    *out = (int32_t)lit;
    return 0;
}

/* A free variable for an unconstrained input node, recorded in the
 * frame's input_sat like Python's encoder records it. */
static int
free_input(Encoder *e, EncFrame *f, int32_t node)
{
    PyObject *key, *value;
    int32_t var = core_new_var(e->core);
    int status;

    if (var < 0)
        return -1;
    key = PyLong_FromLong(node);
    value = PyLong_FromLong(var);
    status = (key == NULL || value == NULL) ? -1
        : PyDict_SetItem(f->inputs, key, value);
    Py_XDECREF(key);
    Py_XDECREF(value);
    if (status < 0)
        return -1;
    return frame_store(f, node >> 1, var, e->aig->size);
}

/* solver.add_clause(lits) for literals of this core; -1 on error. */
static int
encode_clause(Core *s, const int32_t *lits, int count)
{
    int idx, status;

    if (!s->ok)
        return 0;
    clause_begin(s);
    for (idx = 0; idx < count; idx++) {
        status = clause_lit(s, lits[idx]);
        if (status)
            return status < 0 ? -1 : 0;
    }
    return clause_end(s) < 0 ? -1 : 0;
}

/* Run the innermost open walk.  Returns 1 with its root's literal in
 * *result (the walk is closed), 0 on a latch request (e->pending; the walk
 * stays open) or -1 on error (the walk is dropped). */
static int
walk(Encoder *e, int32_t *result)
{
    Core *s = e->core;
    Aig *g = e->aig;
    int32_t *top = e->walks.data + e->walks.len - 3;
    Py_ssize_t base = top[0], slot;
    EncFrame *f = &e->frames[top[1]];
    int32_t root = top[2], cur, node, lit, fanin[2], sat[2], out;
    int32_t clause[3];
    int idx, pushed;

    while (e->stack.len > base) {
        cur = e->stack.data[e->stack.len - 1];
        slot = cur >> 1;
        if (frame_lookup(e, f, cur, &lit) < 0)
            goto error;
        if (lit) {
            e->stack.len--;
            continue;
        }
        if (g->kind[slot] != K_AND) {
            if (g->kind[slot] == K_LATCH) {
                e->pending = cur;
                return 0;
            }
            /* Unconstrained node (e.g. a symbolic variable created after
             * this frame): a free SAT variable. */
            if (free_input(e, f, cur) < 0)
                goto error;
            e->stack.len--;
            continue;
        }
        fanin[0] = g->lhs[slot];
        fanin[1] = g->rhs[slot];
        pushed = 0;
        for (idx = 0; idx < 2; idx++) {
            node = fanin[idx] & ~1;
            if (node == 0)
                continue;
            if (frame_lookup(e, f, node, &lit) < 0)
                goto error;
            if (!lit) {
                if (vec_push(&e->stack, node) < 0)
                    goto error;
                pushed = 1;
            }
        }
        if (pushed)
            continue;
        for (idx = 0; idx < 2; idx++) {
            node = fanin[idx] & ~1;
            lit = node ? f->sat[node >> 1] : -e->true_sat;
            sat[idx] = fanin[idx] & 1 ? -lit : lit;
        }
        out = core_new_var(s);
        if (out < 0)
            goto error;
        /* Tseitin clauses for out <-> lhs & rhs. */
        clause[0] = -out;
        clause[1] = sat[0];
        if (encode_clause(s, clause, 2) < 0)
            goto error;
        clause[1] = sat[1];
        if (encode_clause(s, clause, 2) < 0)
            goto error;
        clause[0] = out;
        clause[1] = -sat[0];
        clause[2] = -sat[1];
        if (encode_clause(s, clause, 3) < 0)
            goto error;
        if (frame_store(f, slot, out, g->size) < 0)
            goto error;
        e->stack.len--;
    }
    if (frame_lookup(e, f, root, &lit) < 0)
        goto error;
    e->walks.len -= 3;
    *result = lit;
    return 1;
error:
    e->stack.len = base;
    e->walks.len -= 3;
    return -1;
}

static PyObject *
run_walk(Encoder *e)
{
    PyObject *result;
    int32_t lit;
    int status = walk(e, &lit);

    if (status < 0)
        result = NULL;
    else if (status == 0)
        result = Py_NewRef(Py_None);
    else
        result = PyLong_FromLong(lit);
    return finish(e->core, result);
}

static PyObject *
Encoder_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"aig", "core", "true_sat", NULL};
    PyObject *aig, *core;
    int true_sat;
    Encoder *e;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!O!i:Encoder", kwlist,
                                     &AigType, &aig, &CoreType, &core,
                                     &true_sat))
        return NULL;
    if (true_sat <= 0 || true_sat > ((Core *)core)->num_vars) {
        PyErr_SetString(PyExc_ValueError, "true_sat must be a variable");
        return NULL;
    }
    e = (Encoder *)type->tp_alloc(type, 0);
    if (e == NULL)
        return NULL;
    e->aig = (Aig *)Py_NewRef(aig);
    e->core = (Core *)Py_NewRef(core);
    e->true_sat = true_sat;
    return (PyObject *)e;
}

static void
Encoder_dealloc(Encoder *e)
{
    Py_ssize_t idx;

    for (idx = 0; idx < e->num_frames; idx++) {
        PyMem_Free(e->frames[idx].sat);
        Py_DECREF(e->frames[idx].inputs);
    }
    PyMem_Free(e->frames);
    PyMem_Free(e->stack.data);
    PyMem_Free(e->walks.data);
    Py_XDECREF(e->aig);
    Py_XDECREF(e->core);
    Py_TYPE(e)->tp_free((PyObject *)e);
}

static PyObject *
Encoder_add_frame(Encoder *e, PyObject *inputs)
{
    EncFrame *frames;
    Py_ssize_t cap;

    if (!PyDict_Check(inputs)) {
        PyErr_SetString(PyExc_TypeError, "input_sat must be a dict");
        return NULL;
    }
    if (e->num_frames == e->frames_cap) {
        cap = e->frames_cap ? 2 * e->frames_cap : 8;
        frames = PyMem_Realloc(e->frames, (size_t)cap * sizeof(EncFrame));
        if (frames == NULL)
            return PyErr_NoMemory();
        e->frames = frames;
        e->frames_cap = cap;
    }
    e->frames[e->num_frames].sat = NULL;
    e->frames[e->num_frames].cap = 0;
    e->frames[e->num_frames].inputs = Py_NewRef(inputs);
    e->num_frames++;
    Py_RETURN_NONE;
}

static PyObject *
Encoder_encode(Encoder *e, PyObject *args)
{
    long node;
    Py_ssize_t k;
    int32_t lit;

    if (!PyArg_ParseTuple(args, "ln:encode", &node, &k))
        return NULL;
    if (k < 0 || k >= e->num_frames) {
        PyErr_SetString(PyExc_IndexError, "no such frame");
        return NULL;
    }
    if (node < 0 || node & 1 || node >> 1 >= e->aig->size) {
        PyErr_Format(PyExc_ValueError, "node %ld is not in the AIG", node);
        return NULL;
    }
    if (node == 0)
        return PyLong_FromLong(-e->true_sat);
    if (frame_lookup(e, &e->frames[k], (int32_t)node, &lit) < 0)
        return NULL;
    if (lit)
        return PyLong_FromLong(lit);
    if (vec_reserve(&e->walks, 3) < 0 || vec_push(&e->stack, node) < 0)
        return NULL;
    e->walks.data[e->walks.len++] = (int32_t)(e->stack.len - 1);
    e->walks.data[e->walks.len++] = (int32_t)k;
    e->walks.data[e->walks.len++] = (int32_t)node;
    return run_walk(e);
}

static PyObject *
Encoder_resume(Encoder *e, PyObject *Py_UNUSED(ignored))
{
    if (e->walks.len == 0) {
        PyErr_SetString(PyExc_RuntimeError, "no walk is waiting for a latch");
        return NULL;
    }
    return run_walk(e);
}

static PyObject *
Encoder_gates(Encoder *e, PyObject *arg)
{
    Py_ssize_t k = PyLong_AsSsize_t(arg), slot;
    PyObject *out, *key, *value;
    EncFrame *f;
    int status;

    if (k == -1 && PyErr_Occurred())
        return NULL;
    if (k < 0 || k >= e->num_frames) {
        PyErr_SetString(PyExc_IndexError, "no such frame");
        return NULL;
    }
    f = &e->frames[k];
    out = PyDict_New();
    if (out == NULL)
        return NULL;
    for (slot = 0; slot < f->cap && slot < e->aig->size; slot++) {
        if (!f->sat[slot] || e->aig->kind[slot] != K_AND)
            continue;
        key = PyLong_FromSsize_t(slot << 1);
        value = PyLong_FromLong(f->sat[slot]);
        status = (key == NULL || value == NULL) ? -1
            : PyDict_SetItem(out, key, value);
        Py_XDECREF(key);
        Py_XDECREF(value);
        if (status < 0) {
            Py_DECREF(out);
            return NULL;
        }
    }
    return out;
}

static PyObject *
Encoder_get_pending(Encoder *e, void *closure)
{
    return PyLong_FromLong(e->pending);
}

static PyMethodDef Encoder_methods[] = {
    {"add_frame", (PyCFunction)Encoder_add_frame, METH_O,
     "add_frame(input_sat): open the next frame over its input_sat dict."},
    {"encode", (PyCFunction)Encoder_encode, METH_VARARGS,
     "encode(node, k): the node's SAT literal in frame k, or None when the "
     "walk needs the latch `pending` first (then resume())."},
    {"resume", (PyCFunction)Encoder_resume, METH_NOARGS,
     "Continue the innermost walk after its latch request."},
    {"gates", (PyCFunction)Encoder_gates, METH_O,
     "gates(k): frame k's AND node -> SAT literal map."},
    {NULL, NULL, 0, NULL}
};

static PyGetSetDef Encoder_getset[] = {
    {"pending", (getter)Encoder_get_pending, NULL,
     "The latch node the last request asked for.", NULL},
    {NULL, NULL, NULL, NULL, NULL}
};

static PyTypeObject EncoderType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.formal._satcore.Encoder",
    .tp_doc = "Unroller's Tseitin walk: Encoder(aig, core, true_sat).",
    .tp_basicsize = sizeof(Encoder),
    .tp_itemsize = 0,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = Encoder_new,
    .tp_dealloc = (destructor)Encoder_dealloc,
    .tp_methods = Encoder_methods,
    .tp_getset = Encoder_getset,
};

/* ---- Lifter ------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    Aig *aig;
    Core *core;
    int32_t *model;             /* [slot] SAT literal of a model node, or 0 */
    Py_ssize_t model_len;
    int32_t *var_node;          /* [var] node of a cube variable, or 0 */
    Py_ssize_t var_len;
    /* Per-lift scratch indexed by slot: an entry counts only while its
     * stamp equals the lift's epoch, so nothing is cleared between lifts. */
    Py_ssize_t cap;
    uint32_t epoch;
    uint32_t *valued;           /* value[] and fanout[] are set */
    uint32_t *visited;          /* in the union cone */
    uint32_t *rooted;           /* a required node */
    int8_t *value;              /* 0, 1 or T_X */
    int32_t *fanout;            /* head of the in-cone fanout list, -1 = end */
    IntVec edges;               /* (fanout node slot, next edge) pairs */
    IntVec cone;
    IntVec stack;
    IntVec changed;             /* (slot, old value) pairs of a trial */
    IntVec required;            /* (literal, wanted value) pairs */
    IntVec kept;                /* cube positions kept */
} Lifter;

static int
cmp_int32(const void *a, const void *b)
{
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;

    return (x > y) - (x < y);
}

static inline int
ternary_and(const Aig *g, const int8_t *value, Py_ssize_t slot)
{
    int32_t lhs = g->lhs[slot], rhs = g->rhs[slot];
    int a = value[lhs >> 1], b = value[rhs >> 1];

    if (a != T_X)
        a ^= lhs & 1;
    if (b != T_X)
        b ^= rhs & 1;
    if (a == 0 || b == 0)
        return 0;
    return a == T_X || b == T_X ? T_X : 1;
}

/* A leaf's concrete value: the model's value for model nodes, else X. */
static void
read_leaf(Lifter *t, Py_ssize_t slot)
{
    int32_t lit = slot < t->model_len ? t->model[slot] : 0;

    t->value[slot] = lit == 0 ? T_X : LVAL(t->core->assign, lit) == L_TRUE;
    t->valued[slot] = t->epoch;
    t->fanout[slot] = -1;
}

static int
lifter_reserve(Lifter *t)
{
    Py_ssize_t cap = t->aig->size;

    if (cap <= t->cap)
        return 0;
    if (grow_zeroed((void **)&t->valued, t->cap, cap, sizeof(uint32_t)) < 0
            || grow_zeroed((void **)&t->visited, t->cap, cap,
                           sizeof(uint32_t)) < 0
            || grow_zeroed((void **)&t->rooted, t->cap, cap,
                           sizeof(uint32_t)) < 0
            || grow_zeroed((void **)&t->value, t->cap, cap, 1) < 0
            || grow_zeroed((void **)&t->fanout, t->cap, cap,
                           sizeof(int32_t)) < 0)
        return -1;
    t->cap = cap;
    return 0;
}

/* Load `map` into a fresh zeroed array indexed by key >> shift.  Keys must
 * be positive, below `limit` and multiples of 1 << shift; values nonzero
 * and within [low, high]. */
static int
load_map(PyObject *map, int shift, long limit, long low, long high,
         int32_t **out, Py_ssize_t *len, const char *what)
{
    PyObject *key, *value;
    Py_ssize_t pos = 0;
    long k, v;

    *len = (Py_ssize_t)((limit + (1L << shift) - 1) >> shift);
    *out = PyMem_Calloc((size_t)*len + 1, sizeof(int32_t));
    if (*out == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    while (PyDict_Next(map, &pos, &key, &value)) {
        k = PyLong_AsLong(key);
        if (k == -1 && PyErr_Occurred())
            return -1;
        v = PyLong_AsLong(value);
        if (v == -1 && PyErr_Occurred())
            return -1;
        if (k <= 0 || k >= limit || k & ((1L << shift) - 1) || v == 0
                || v < low || v > high) {
            PyErr_Format(PyExc_ValueError, "bad %s entry %ld: %ld",
                         what, k, v);
            return -1;
        }
        (*out)[k >> shift] = (int32_t)v;
    }
    return 0;
}

static PyObject *
Lifter_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"aig", "core", "model", "var_to_node", NULL};
    PyObject *aig, *core, *model, *var_to_node;
    Lifter *t;
    long num_vars, next_node;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!O!O!O!:Lifter", kwlist,
                                     &AigType, &aig, &CoreType, &core,
                                     &PyDict_Type, &model,
                                     &PyDict_Type, &var_to_node))
        return NULL;
    t = (Lifter *)type->tp_alloc(type, 0);
    if (t == NULL)
        return NULL;
    t->aig = (Aig *)Py_NewRef(aig);
    t->core = (Core *)Py_NewRef(core);
    num_vars = t->core->num_vars;
    next_node = t->aig->next_node;
    /* model: node -> SAT literal; var_to_node: SAT variable -> node. */
    if (load_map(model, 1, next_node, -num_vars, num_vars, &t->model,
                 &t->model_len, "model") < 0
            || load_map(var_to_node, 0, num_vars + 1, 2, next_node - 1,
                        &t->var_node, &t->var_len, "var_to_node") < 0) {
        Py_DECREF(t);
        return NULL;
    }
    return (PyObject *)t;
}

static void
Lifter_dealloc(Lifter *t)
{
    PyMem_Free(t->model);
    PyMem_Free(t->var_node);
    PyMem_Free(t->valued);
    PyMem_Free(t->visited);
    PyMem_Free(t->rooted);
    PyMem_Free(t->value);
    PyMem_Free(t->fanout);
    PyMem_Free(t->edges.data);
    PyMem_Free(t->cone.data);
    PyMem_Free(t->stack.data);
    PyMem_Free(t->changed.data);
    PyMem_Free(t->required.data);
    PyMem_Free(t->kept.data);
    Py_XDECREF(t->aig);
    Py_XDECREF(t->core);
    Py_TYPE(t)->tp_free((PyObject *)t);
}

/* Parse the (literal, wanted value) pairs into t->required. */
static int
load_required(Lifter *t, PyObject *required)
{
    PyObject *seq, *pair;
    Py_ssize_t idx;
    long lit;
    int want;

    seq = PySequence_Fast(required, "required must be iterable");
    if (seq == NULL)
        return -1;
    t->required.len = 0;
    for (idx = 0; idx < PySequence_Fast_GET_SIZE(seq); idx++) {
        pair = PySequence_Fast(PySequence_Fast_GET_ITEM(seq, idx),
                               "a requirement is a (literal, value) pair");
        if (pair == NULL)
            goto error;
        if (PySequence_Fast_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_ValueError,
                            "a requirement is a (literal, value) pair");
            Py_DECREF(pair);
            goto error;
        }
        lit = PyLong_AsLong(PySequence_Fast_GET_ITEM(pair, 0));
        want = lit == -1 && PyErr_Occurred()
            ? -1 : PyObject_IsTrue(PySequence_Fast_GET_ITEM(pair, 1));
        Py_DECREF(pair);
        if (want < 0)
            goto error;
        if (lit < 0 || lit >> 1 >= t->aig->size) {
            PyErr_Format(PyExc_ValueError,
                         "literal %ld is not in the AIG", lit);
            goto error;
        }
        if (vec_push(&t->required, (int32_t)lit) < 0
                || vec_push(&t->required, want) < 0)
            goto error;
    }
    Py_DECREF(seq);
    return 0;
error:
    Py_DECREF(seq);
    return -1;
}

/* The concrete pass: evaluate the union cone of the required nodes in
 * ascending (topological) order, recording each node's in-cone fanout. */
static int
concrete_pass(Lifter *t)
{
    const Aig *g = t->aig;
    uint32_t epoch = t->epoch;
    Py_ssize_t idx, slot, cur, fanin;
    int32_t *edge, lits[2];
    int side;

    t->cone.len = 0;
    t->edges.len = 0;
    for (idx = 0; idx < t->required.len; idx += 2) {
        slot = t->required.data[idx] >> 1;
        if (slot == 0 || t->rooted[slot] == epoch)
            continue;
        t->rooted[slot] = epoch;
        if (g->kind[slot] != K_AND) {
            if (t->valued[slot] != epoch)
                read_leaf(t, slot);
            continue;
        }
        if (t->visited[slot] == epoch)
            continue;
        t->visited[slot] = epoch;
        t->stack.len = 0;
        if (vec_push(&t->stack, (int32_t)slot) < 0)
            return -1;
        while (t->stack.len) {
            cur = t->stack.data[--t->stack.len];
            if (vec_push(&t->cone, (int32_t)cur) < 0)
                return -1;
            lits[0] = g->lhs[cur];
            lits[1] = g->rhs[cur];
            for (side = 0; side < 2; side++) {
                fanin = lits[side] >> 1;
                if (g->kind[fanin] == K_AND && t->visited[fanin] != epoch) {
                    t->visited[fanin] = epoch;
                    if (vec_push(&t->stack, (int32_t)fanin) < 0)
                        return -1;
                }
            }
        }
    }
    qsort(t->cone.data, (size_t)t->cone.len, sizeof(int32_t), cmp_int32);
    for (idx = 0; idx < t->cone.len; idx++) {
        slot = t->cone.data[idx];
        lits[0] = g->lhs[slot];
        lits[1] = g->rhs[slot];
        for (side = 0; side < 2; side++) {
            fanin = lits[side] >> 1;
            if (t->valued[fanin] != epoch)
                read_leaf(t, fanin);
            if (fanin == 0)
                continue;
            if (vec_reserve(&t->edges, 2) < 0)
                return -1;
            edge = t->edges.data + t->edges.len;
            edge[0] = (int32_t)slot;
            edge[1] = t->fanout[fanin];
            t->fanout[fanin] = (int32_t)(t->edges.len >> 1);
            t->edges.len += 2;
        }
        t->value[slot] = (int8_t)ternary_and(g, t->value, slot);
        t->valued[slot] = epoch;
        t->fanout[slot] = -1;
    }
    return 0;
}

/* One trial: set `slot` to X and push X through its in-cone fanout.
 * Returns 1 (and undoes every change) when a required node went X. */
static int
trial(Lifter *t, Py_ssize_t slot)
{
    const Aig *g = t->aig;
    int8_t *value = t->value;
    int32_t cur, out, edge, *changed;
    Py_ssize_t idx;

    t->changed.len = 0;
    t->stack.len = 0;
    if (vec_push(&t->changed, (int32_t)slot) < 0
            || vec_push(&t->changed, value[slot]) < 0
            || vec_push(&t->stack, (int32_t)slot) < 0)
        return -1;
    value[slot] = T_X;
    while (t->stack.len) {
        cur = t->stack.data[--t->stack.len];
        if (t->rooted[cur] == t->epoch) {
            changed = t->changed.data;
            for (idx = 0; idx < t->changed.len; idx += 2)
                value[changed[idx]] = (int8_t)changed[idx + 1];
            return 1;
        }
        for (edge = t->fanout[cur]; edge >= 0;
             edge = t->edges.data[2 * edge + 1]) {
            out = t->edges.data[2 * edge];
            if (value[out] != T_X && ternary_and(g, value, out) == T_X) {
                if (vec_push(&t->changed, out) < 0
                        || vec_push(&t->changed, value[out]) < 0
                        || vec_push(&t->stack, out) < 0)
                    return -1;
                value[out] = T_X;
            }
        }
    }
    return 0;
}

static PyObject *
Lifter_lift(Lifter *t, PyObject *args)
{
    PyObject *cube, *required, *seq, *out;
    Py_ssize_t idx, slot;
    long lit, var;
    int32_t node;
    int holds = 1, status, v;

    if (!PyArg_ParseTuple(args, "OO:lift", &cube, &required))
        return NULL;
    if (lifter_reserve(t) < 0 || load_required(t, required) < 0)
        return NULL;
    if (++t->epoch == 0) {      /* wrapped: every old stamp could match */
        memset(t->valued, 0, (size_t)t->cap * sizeof(uint32_t));
        memset(t->visited, 0, (size_t)t->cap * sizeof(uint32_t));
        memset(t->rooted, 0, (size_t)t->cap * sizeof(uint32_t));
        t->epoch = 1;
    }
    t->value[0] = 0;
    t->valued[0] = t->epoch;
    t->fanout[0] = -1;
    if (concrete_pass(t) < 0)
        return NULL;
    /* A requirement that fails even concretely fails every trial, so every
     * literal is kept: skip the trials and return the whole cube. */
    for (idx = 0; idx < t->required.len; idx += 2) {
        lit = t->required.data[idx];
        v = t->value[lit >> 1];
        if (v == T_X || (v ^ (lit & 1)) != t->required.data[idx + 1]) {
            holds = 0;
            break;
        }
    }
    seq = PySequence_Fast(cube, "cube must be iterable");
    if (seq == NULL)
        return NULL;
    t->kept.len = 0;
    for (idx = 0; holds && idx < PySequence_Fast_GET_SIZE(seq); idx++) {
        lit = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, idx));
        if (lit == -1 && PyErr_Occurred())
            goto error;
        var = lit < 0 ? -lit : lit;
        node = var < t->var_len ? t->var_node[var] : 0;
        if (node == 0) {
            PyObject *key = PyLong_FromLong(var);
            if (key != NULL) {
                PyErr_SetObject(PyExc_KeyError, key);
                Py_DECREF(key);
            }
            goto error;
        }
        slot = node >> 1;
        if (slot >= t->cap || t->valued[slot] != t->epoch
                || t->value[slot] == T_X)
            continue;   /* outside the cone (or already X): no effect */
        status = trial(t, slot);
        if (status < 0 || (status && vec_push(&t->kept, (int32_t)idx) < 0))
            goto error;
    }
    if (t->kept.len == 0) {
        Py_DECREF(seq);
        return Py_NewRef(cube);
    }
    out = PyTuple_New(t->kept.len);
    if (out != NULL)
        for (idx = 0; idx < t->kept.len; idx++)
            PyTuple_SET_ITEM(out, idx, Py_NewRef(
                PySequence_Fast_GET_ITEM(seq, t->kept.data[idx])));
    Py_DECREF(seq);
    return out;
error:
    Py_DECREF(seq);
    return NULL;
}

static PyMethodDef Lifter_methods[] = {
    {"lift", (PyCFunction)Lifter_lift, METH_VARARGS,
     "lift(cube, required): Pdr._lift_cube on the core's current model."},
    {NULL, NULL, 0, NULL}
};

static PyTypeObject LifterType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.formal._satcore.Lifter",
    .tp_doc = "Pdr's ternary cube lifting: "
              "Lifter(aig, core, model, var_to_node).",
    .tp_basicsize = sizeof(Lifter),
    .tp_itemsize = 0,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = Lifter_new,
    .tp_dealloc = (destructor)Lifter_dealloc,
    .tp_methods = Lifter_methods,
};

static struct PyModuleDef satcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_satcore",
    .m_doc = "Native CDCL core behind repro.formal.sat.Solver.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__satcore(void)
{
    PyObject *module;
    int i;

    for (i = 0; i < ST_COUNT; i++) {
        if (stat_keys[i] == NULL) {
            stat_keys[i] = PyUnicode_InternFromString(stat_names[i]);
            if (stat_keys[i] == NULL)
                return NULL;
        }
    }
    if (wall_key == NULL) {
        wall_key = PyUnicode_InternFromString("wall_time_s");
        if (wall_key == NULL)
            return NULL;
    }
    if (PyType_Ready(&CoreType) < 0 || PyType_Ready(&AigType) < 0
            || PyType_Ready(&EncoderType) < 0 || PyType_Ready(&LifterType) < 0)
        return NULL;
    module = PyModule_Create(&satcore_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddType(module, &CoreType) < 0
            || PyModule_AddType(module, &AigType) < 0
            || PyModule_AddType(module, &EncoderType) < 0
            || PyModule_AddType(module, &LifterType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
