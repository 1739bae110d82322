package experiment

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register(Experiment{ID: "ext-tournament", Paper: "§6 extension (policy registry)",
		Title: "Algorithm tournament: every registered policy × chaos intensity × workload shape",
		Run:   runExtTournament})
}

// tournamentPattern is one workload shape of the tournament grid. The
// shapes are the paper's three sweep families pinned at 16 units — the
// knee of the fig9–13 curves, where the policies actually diverge.
type tournamentPattern struct {
	name    string
	factory func(maxItems int) workload.Pattern
}

func tournamentPatterns() []tournamentPattern {
	return []tournamentPattern{
		{"triangular", TriangularFactory},
		{"increasing", IncreasingFactory},
		{"decreasing", DecreasingFactory},
	}
}

// tournamentSeed derives the deterministic seed for one (pattern,
// intensity, policy, replication) cell, FNV-hashed over the full cell
// identity so no two cells alias.
func tournamentSeed(pattern, intensity string, alg core.Algorithm, rep int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "tournament|%s|%s|%s|%d", pattern, intensity, alg, rep)
	return h.Sum64()
}

// tournamentPolicies resolves the policy axis: the Context's subset if
// one was given (-policies), otherwise every registered policy in
// registration order.
func tournamentPolicies(ctx Context) []core.Algorithm {
	if len(ctx.Policies) == 0 {
		return core.Algorithms()
	}
	algs := make([]core.Algorithm, len(ctx.Policies))
	for i, p := range ctx.Policies {
		algs[i] = core.Algorithm(p)
	}
	return algs
}

// runExtTournament sweeps every registered allocation policy across the
// chaos-intensity grid and three workload shapes, then ranks the
// policies on the paper's combined metric C (smaller is better). Two
// tables come out: the full grid, and a leaderboard aggregating each
// policy over every cell it ran.
func runExtTournament(ctx Context) (Output, error) {
	const maxUnits = 16
	intensities := chaosIntensities()
	patterns := tournamentPatterns()
	if ctx.Quick {
		intensities = intensities[:2]
		patterns = patterns[:1]
	}
	algs := tournamentPolicies(ctx)
	seeds := ctx.seeds()

	// Submit the whole grid before waiting on any run, so the
	// scheduler's worker pool sees the entire batch at once. Cells of
	// different policies never alias: the fingerprint includes the
	// algorithm (TestTournamentCellsNeverAlias).
	sched := ctx.scheduler()
	type cell struct {
		pattern string
		in      chaosIntensity
		alg     core.Algorithm
		reps    []*runEntry
	}
	var cells []cell
	for _, pat := range patterns {
		for _, in := range intensities {
			for _, alg := range algs {
				c := cell{pattern: pat.name, in: in, alg: alg, reps: make([]*runEntry, seeds)}
				for r := 0; r < seeds; r++ {
					setup, err := BenchmarkSetup(pat.factory(maxUnits * WorkloadUnit))
					if err != nil {
						return Output{}, err
					}
					cfg := chaosConfig(in, tournamentSeed(pat.name, in.name, alg, r))
					c.reps[r] = sched.submit(cfg, alg, []core.TaskSetup{setup})
				}
				cells = append(cells, c)
			}
		}
	}

	ci := seeds > 1
	grid := &Table{
		Title: fmt.Sprintf("ext-tournament — policy grid (%d policies × %d intensities × %d patterns, %d units, hardened manager)",
			len(algs), len(intensities), len(patterns), maxUnits),
		Notes: []string{
			"every registered policy runs the same chaos grid as ext-chaos; C = MD% + CPU% + Net% + replica-use% (smaller is better)",
			"shed = work items dropped by imprecise-shed's optional parts; stretched = period launches skipped by period-stretch",
		},
	}
	if ci {
		grid.Columns = []string{"pattern", "intensity", "policy",
			"MD%", "±95", "shed", "±95", "stretched", "±95", "C", "±95"}
		grid.Notes = append(grid.Notes, ciNote(seeds))
	} else {
		grid.Columns = []string{"pattern", "intensity", "policy", "MD%", "shed", "stretched", "C"}
	}

	// agg accumulates every replication of every cell a policy ran, for
	// the leaderboard; wins counts cells where the policy's mean C beat
	// the whole field.
	type agg struct {
		md, shed, str, cm []float64
		wins              int
	}
	aggs := make(map[core.Algorithm]*agg, len(algs))
	for _, alg := range algs {
		aggs[alg] = &agg{}
	}

	// cellMean remembers each cell's mean C keyed by grid coordinate so
	// wins can be decided after all cells resolve.
	type coord struct{ pattern, intensity string }
	cellMean := make(map[coord]map[core.Algorithm]float64)

	for _, c := range cells {
		md := make([]float64, seeds)
		sh := make([]float64, seeds)
		st := make([]float64, seeds)
		cm := make([]float64, seeds)
		for r, e := range c.reps {
			out, err := e.wait()
			if err != nil {
				return Output{}, fmt.Errorf("experiment: tournament %s/%s/%s rep %d: %w",
					c.pattern, c.in.name, c.alg, r, err)
			}
			m := out.Metrics
			md[r] = m.MissedPct()
			sh[r] = float64(m.ShedItems)
			st[r] = float64(m.StretchedPeriods)
			cm[r] = m.Combined()
		}
		a := aggs[c.alg]
		a.md = append(a.md, md...)
		a.shed = append(a.shed, sh...)
		a.str = append(a.str, st...)
		a.cm = append(a.cm, cm...)
		k := coord{c.pattern, c.in.name}
		if cellMean[k] == nil {
			cellMean[k] = make(map[core.Algorithm]float64)
		}
		cmM, _ := stats.MeanCI95(cm)
		cellMean[k][c.alg] = cmM
		if ci {
			mdM, mdC := stats.MeanCI95(md)
			shM, shC := stats.MeanCI95(sh)
			stM, stC := stats.MeanCI95(st)
			_, cmC := stats.MeanCI95(cm)
			grid.AddRow(c.pattern, c.in.name, string(c.alg), mdM, mdC, shM, shC, stM, stC, cmM, cmC)
		} else {
			grid.AddRow(c.pattern, c.in.name, string(c.alg), md[0], sh[0], st[0], cm[0])
		}
	}

	for _, perAlg := range cellMean {
		best := core.Algorithm("")
		bestC := 0.0
		for _, alg := range algs { // registration order: deterministic tie-break
			if c, ok := perAlg[alg]; ok && (best == "" || c < bestC) {
				best, bestC = alg, c
			}
		}
		if best != "" {
			aggs[best].wins++
		}
	}

	board := &Table{
		Title: "ext-tournament — leaderboard (mean over every grid cell and replication; rank 1 = lowest C)",
		Notes: []string{
			"wins = grid cells where the policy's mean C beat every other policy (ties go to registration order)",
		},
	}
	if ci {
		board.Columns = []string{"rank", "policy", "paper",
			"C", "±95", "MD%", "±95", "shed", "stretched", "wins"}
	} else {
		board.Columns = []string{"rank", "policy", "paper", "C", "MD%", "shed", "stretched", "wins"}
	}
	type row struct {
		alg        core.Algorithm
		paper      string
		cM, cC     float64
		mdM, mdC   float64
		shed, strt float64
		wins       int
	}
	rows := make([]row, 0, len(algs))
	for _, alg := range algs {
		a := aggs[alg]
		pol, _ := policy.Lookup(string(alg))
		r := row{alg: alg, paper: pol.Paper(), wins: a.wins}
		r.cM, r.cC = stats.MeanCI95(a.cm)
		r.mdM, r.mdC = stats.MeanCI95(a.md)
		r.shed, _ = stats.MeanCI95(a.shed)
		r.strt, _ = stats.MeanCI95(a.str)
		rows = append(rows, r)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].cM < rows[j].cM })
	for i, r := range rows {
		if ci {
			board.AddRow(i+1, string(r.alg), r.paper, r.cM, r.cC, r.mdM, r.mdC, r.shed, r.strt, r.wins)
		} else {
			board.AddRow(i+1, string(r.alg), r.paper, r.cM, r.mdM, r.shed, r.strt, r.wins)
		}
	}
	return Output{ID: "ext-tournament", Tables: []*Table{grid, board}}, nil
}
