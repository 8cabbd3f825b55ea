package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	p2h "p2h"
	"p2h/internal/cluster"
	"p2h/internal/httpapi"
)

const clusterUsage = `usage: p2htool cluster <status|split> [flags]
  status  probe a cluster's members: health, shard ownership, versions, lag
  split   partition a data set into per-shard containers plus the cluster's
          partition map and per-member daemon configs
Run 'p2htool cluster <subcommand> -h' for the flags of each subcommand.`

func runCluster(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		fmt.Fprintln(stderr, clusterUsage)
		return fmt.Errorf("cluster: missing subcommand")
	}
	switch args[0] {
	case "status":
		return runClusterStatus(args[1:], stdout, stderr)
	case "split":
		return runClusterSplit(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprintln(stdout, clusterUsage)
		return nil
	default:
		fmt.Fprintln(stderr, clusterUsage)
		return fmt.Errorf("cluster: unknown subcommand %q", args[0])
	}
}

// runClusterStatus probes every member of a cluster config and prints one
// table: member health, then per-shard placement with served point counts,
// mutation epochs and replication lag.
func runClusterStatus(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cluster status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	configPath := fs.String("config", "", "cluster partition map JSON (required)")
	timeout := fs.Duration("timeout", 5*time.Second, "overall probe deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *configPath == "" {
		return fmt.Errorf("cluster status: -config is required")
	}
	cfg, err := cluster.LoadConfig(*configPath)
	if err != nil {
		return fmt.Errorf("cluster status: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	rows, members, err := cluster.Status(ctx, cfg)
	if err != nil {
		return fmt.Errorf("cluster status: %w", err)
	}

	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "MEMBER\tSTATE\tURL\tREQUESTS\tLAST ERROR")
	names := make([]string, 0, len(members))
	for name := range members {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ms := members[name]
		lastErr := ms.LastError
		if lastErr == "" {
			lastErr = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\n", name, ms.State, ms.URL, ms.Requests, lastErr)
	}
	fmt.Fprintln(tw, "\t\t\t\t")
	fmt.Fprintln(tw, "INDEX\tSHARD\tROLE\tMEMBER\tPOINTS\tEPOCH\tLAG")
	for _, row := range rows {
		points, epoch, lag := "-", "-", "-"
		if row.Points >= 0 {
			points = strconv.Itoa(row.Points)
		}
		if row.Epoch >= 0 {
			epoch = strconv.FormatInt(row.Epoch, 10)
		}
		if row.Lag >= 0 {
			lag = strconv.FormatInt(row.Lag, 10)
		}
		member := row.Member
		if row.Err != "" {
			member += " (!)"
		}
		fmt.Fprintf(tw, "%s\t%d (%s)\t%s\t%s\t%s\t%s\t%s\n",
			row.Index, row.Shard, row.MemberIndex, row.Role, member, points, epoch, lag)
	}
	return tw.Flush()
}

// runClusterSplit partitions a data set with the exact plan the in-process
// sharded index would use (p2h.ShardPlan), builds one container per shard,
// and emits everything a cluster boots from: the per-shard containers, the
// router's partition map (cluster.json, with the plan's id maps, so routed
// answers are byte-identical to a single-process sharded index), and one
// p2hd config per member declaring the shards it serves.
//
// Member URLs can be given as name=url pairs, or as a bare count N, which
// names members m0..m{N-1} with placeholder URLs "@m0@".. — substitute the
// real addresses (e.g. with sed) once the daemons are up; handy when members
// bind dynamic ports.
func runClusterSplit(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cluster split", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dataPath := fs.String("data", "", "data fvecs path (required)")
	attrsPath := fs.String("attrs", "", "optional JSON array of per-point attribute payloads (one per data row, in row order)")
	name := fs.String("name", "default", "logical index name the router serves")
	membersFlag := fs.String("members", "", "member count, or comma-separated name=url pairs (required)")
	shards := fs.Int("shards", 0, "number of shards (0: one per member)")
	replicas := fs.Int("replicas", 1, "replicas per shard beyond the primary")
	specJSON := fs.String("spec", "", "p2h.Spec as JSON for tuning (leaf_size, seed)")
	leafSize := fs.Int("leafsize", 0, "override the spec's tree leaf size N0")
	seed := fs.Int64("seed", 0, "override the spec's construction seed")
	outDir := fs.String("out", "", "output directory (required; created if missing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" || *outDir == "" || *membersFlag == "" {
		return fmt.Errorf("cluster split: -data, -members and -out are required")
	}

	memberNames, memberURLs, err := parseMembers(*membersFlag)
	if err != nil {
		return fmt.Errorf("cluster split: %w", err)
	}
	nShards := *shards
	if nShards <= 0 {
		nShards = len(memberNames)
	}
	if *replicas < 0 || *replicas >= len(memberNames) {
		return fmt.Errorf("cluster split: -replicas %d needs 0..%d with %d members",
			*replicas, len(memberNames)-1, len(memberNames))
	}
	spec, err := makeSpec("", *specJSON)
	if err != nil {
		return fmt.Errorf("cluster split: %w", err)
	}
	if *leafSize > 0 {
		spec.LeafSize = *leafSize
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	spec.Shards = nShards

	data, err := p2h.LoadFvecs(*dataPath)
	if err != nil {
		return fmt.Errorf("cluster split: %w", err)
	}
	var points []p2h.PointAttrs
	if *attrsPath != "" {
		raw, err := os.ReadFile(*attrsPath)
		if err != nil {
			return fmt.Errorf("cluster split: %w", err)
		}
		if err := json.Unmarshal(raw, &points); err != nil {
			return fmt.Errorf("cluster split: decoding %s: %w", *attrsPath, err)
		}
		if len(points) != data.N {
			return fmt.Errorf("cluster split: %s holds %d payloads, data holds %d rows",
				*attrsPath, len(points), data.N)
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("cluster split: %w", err)
	}

	plan := p2h.ShardPlan(data, spec)
	ccfg := cluster.Config{
		Members: make(map[string]cluster.MemberConfig, len(memberNames)),
		Indexes: map[string]cluster.IndexMap{*name: {}},
	}
	for i, mn := range memberNames {
		ccfg.Members[mn] = cluster.MemberConfig{URL: memberURLs[i]}
	}
	memberIndexes := make(map[string]map[string]httpapi.IndexConfig, len(memberNames))
	for _, mn := range memberNames {
		memberIndexes[mn] = make(map[string]httpapi.IndexConfig)
	}

	im := ccfg.Indexes[*name]
	for si, part := range plan {
		shardIndex := fmt.Sprintf("%s-s%d", *name, si)
		file := shardIndex + ".p2h"
		// The shard tree is built exactly as the in-process sharded index
		// builds shard si: the plan's subset with the derived seed.
		ix, err := p2h.New(data.SubsetRows(part), p2h.Spec{
			Kind:     p2h.KindBCTree,
			LeafSize: spec.LeafSize,
			Seed:     spec.Seed + int64(si) + 1,
		})
		if err != nil {
			return fmt.Errorf("cluster split: shard %d: %w", si, err)
		}
		if points != nil {
			// Attach the shard's own rows in shard-local order: filtered
			// queries routed to this member see the same payloads the
			// in-process sharded index would, so merges stay byte-identical.
			sub := make([]p2h.PointAttrs, len(part))
			for i, row := range part {
				sub[i] = points[row]
			}
			if err := p2h.AttachAttributes(ix, sub); err != nil {
				return fmt.Errorf("cluster split: shard %d: %w", si, err)
			}
		}
		if err := p2h.SaveFile(filepath.Join(*outDir, file), ix); err != nil {
			return fmt.Errorf("cluster split: shard %d: %w", si, err)
		}
		sc := cluster.ShardConfig{
			Index:   shardIndex,
			Primary: memberNames[si%len(memberNames)],
			IDs:     part,
		}
		for r := 1; r <= *replicas; r++ {
			sc.Replicas = append(sc.Replicas, memberNames[(si+r)%len(memberNames)])
		}
		im.Shards = append(im.Shards, sc)
		for _, holder := range append([]string{sc.Primary}, sc.Replicas...) {
			memberIndexes[holder][shardIndex] = httpapi.IndexConfig{Path: file}
		}
		fmt.Fprintf(stdout, "shard %d: %d points -> %s (primary %s, replicas %s)\n",
			si, len(part), file, sc.Primary, strings.Join(sc.Replicas, ","))
	}
	ccfg.Indexes[*name] = im

	if err := writeJSONFile(filepath.Join(*outDir, "cluster.json"), ccfg); err != nil {
		return fmt.Errorf("cluster split: %w", err)
	}
	for _, mn := range memberNames {
		mcfg := httpapi.Config{Indexes: memberIndexes[mn]}
		if err := writeJSONFile(filepath.Join(*outDir, "member-"+mn+".json"), mcfg); err != nil {
			return fmt.Errorf("cluster split: %w", err)
		}
	}
	fmt.Fprintf(stdout, "wrote %s and %d member config(s); member container paths are relative to %s\n",
		filepath.Join(*outDir, "cluster.json"), len(memberNames), *outDir)
	return nil
}

// parseMembers accepts "3" (placeholder URLs) or "m0=http://a,m1=http://b".
func parseMembers(s string) (names, urls []string, err error) {
	if n, err := strconv.Atoi(s); err == nil {
		if n < 1 {
			return nil, nil, fmt.Errorf("need at least one member, got %d", n)
		}
		for i := 0; i < n; i++ {
			name := "m" + strconv.Itoa(i)
			names = append(names, name)
			urls = append(urls, "@"+name+"@")
		}
		return names, urls, nil
	}
	for _, tok := range strings.Split(s, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(tok), "=")
		if !ok || name == "" || url == "" {
			return nil, nil, fmt.Errorf("bad -members entry %q (want name=url or a count)", tok)
		}
		names = append(names, name)
		urls = append(urls, url)
	}
	return names, urls, nil
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
