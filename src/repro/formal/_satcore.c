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

static PyObject *
Core_new_var(Core *s, PyObject *Py_UNUSED(ignored))
{
    int32_t var;

    if (s->num_vars >= INT32_MAX - 1) {
        PyErr_SetString(PyExc_OverflowError, "too many variables");
        return NULL;
    }
    if (reserve_vars(s, (Py_ssize_t)s->num_vars + 2) < 0)
        return NULL;
    var = ++s->num_vars;
    s->assign[var] = L_UNASSIGNED;
    s->level[var] = 0;
    s->reason[var] = 0;
    s->phase[var] = 0;
    s->activity[var] = 0.0;
    s->heap_pos[var] = -1;
    heap_insert(s, var);
    return PyLong_FromLong(var);
}

/* Drop add_clause's duplicate marks. */
static void
clear_marks(Core *s)
{
    Py_ssize_t idx;

    for (idx = 0; idx < s->clause.len; idx++)
        s->lit_mark[LIDX(s->clause.data[idx])] = 0;
}

static PyObject *
Core_add_clause(Core *s, PyObject *lits)
{
    PyObject *seq, *item;
    Py_ssize_t idx;
    int32_t lit, conflict, offset;
    int kind, val, result;

    if (!s->ok)
        Py_RETURN_FALSE;
    cancel_until(s, 0);
    seq = PySequence_Fast(lits, "clause literals must be iterable");
    if (seq == NULL)
        return NULL;
    s->clause.len = 0;
    for (idx = 0; idx < PySequence_Fast_GET_SIZE(seq); idx++) {
        item = PySequence_Fast_GET_ITEM(seq, idx);
        Py_INCREF(item);
        kind = read_literal(s, item, &lit);
        if (kind != LIT_VALID) {
            if (kind != LIT_ERROR)
                PyErr_Format(PyExc_ValueError, "invalid literal %R", item);
            Py_DECREF(item);
            goto error;
        }
        Py_DECREF(item);
        if (s->lit_mark[LIDX(-lit)]) {
            clear_marks(s);
            Py_DECREF(seq);
            Py_RETURN_TRUE;     /* tautology: trivially satisfied */
        }
        if (s->lit_mark[LIDX(lit)])
            continue;
        val = LVAL(s->assign, lit);
        if (val == L_TRUE) {
            clear_marks(s);
            Py_DECREF(seq);
            Py_RETURN_TRUE;     /* already satisfied at root level */
        }
        if (val == L_FALSE)
            continue;           /* falsified at root: drop the literal */
        if (vec_push(&s->clause, lit) < 0)
            goto error;
        s->lit_mark[LIDX(lit)] = 1;
    }
    clear_marks(s);
    Py_DECREF(seq);
    if (s->clause.len == 0) {
        s->ok = 0;
        Py_RETURN_FALSE;
    }
    if (s->clause.len == 1) {
        result = 1;
        if (!enqueue(s, s->clause.data[0], 0)) {
            result = 0;
        }
        else {
            if (propagate(s, &conflict) < 0)
                return finish(s, NULL);
            if (conflict)
                result = 0;
        }
        if (!result)
            s->ok = 0;
        return finish(s, bool_result(result));
    }
    if (reserve_clause(s, s->clause.len) < 0
            || reserve_watches(s, s->clause.data[0], s->clause.data[1]) < 0)
        return NULL;
    offset = alloc_clause(s, s->clause.data, s->clause.len, 0);
    s->num_clauses++;
    attach(s, offset);
    Py_RETURN_TRUE;
error:
    clear_marks(s);
    Py_DECREF(seq);
    return NULL;
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
    if (PyType_Ready(&CoreType) < 0)
        return NULL;
    module = PyModule_Create(&satcore_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&CoreType);
    if (PyModule_AddObject(module, "Solver", (PyObject *)&CoreType) < 0) {
        Py_DECREF(&CoreType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
