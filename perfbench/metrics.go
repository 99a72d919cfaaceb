package main

// The metric catalog: every end-to-end metric is reported by every
// workload with tracing off, every per-layer metric by every workload
// with tracing on (zero where the workload does not reach the layer).
// BENCHMARK.json at the repository root lists the same names and units;
// a self-test keeps the two in step.

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"write_mbps", "MB/s"},
	{"read_mbps", "MB/s"},
	{"open_ms", "ms"},
	{"read_p50_us", "us"},
	{"peak_rss_mb", "MB"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"mpiio.write_all.calls", "count"},
		{"mpiio.write_all.p50_us", "us"},
		{"mpiio.write_all.p99_us", "us"},
		{"mpiio.write_all.self_ms", "ms"},
		{"mpiio.read_all.calls", "count"},
		{"mpiio.read_all.p50_us", "us"},
		{"mpiio.read_all.p99_us", "us"},
		{"mpiio.read_all.self_ms", "ms"},
		{"mpiio.shuffle_bytes", "bytes"},
		{"mpiio.shuffle_pieces", "count"},
		{"mpiio.agg_flush_ops", "count"},
		{"mpiio.round_overlap_ms", "ms"},
		{"mpiio.flush_collapse", "ratio"},
		{"mpi.barrier_wait_ms", "ms"},
		{"driver.ops", "count"},
		{"driver.bytes", "bytes"},
		{"driver.busy_ms", "ms"},
		{"driver.p99_us", "us"},
	}
	for _, op := range shimOpNames {
		defs = append(defs, metricDef{"shim.calls." + op, "count"})
	}
	defs = append(defs,
		metricDef{"shim.busy_ms", "ms"},
		metricDef{"shim.self_ms", "ms"},
		metricDef{"shim.read.p50_us", "us"},
		metricDef{"shim.read.p99_us", "us"},
		metricDef{"shim.open.p50_us", "us"},
		metricDef{"shim.open.p99_us", "us"},
	)
	for _, op := range plfsOps {
		defs = append(defs, metricDef{"plfs." + op + ".count", "count"})
		if op == "read" || op == "write" {
			defs = append(defs, metricDef{"plfs." + op + ".bytes", "bytes"})
		}
		defs = append(defs,
			metricDef{"plfs." + op + ".p50_us", "us"},
			metricDef{"plfs." + op + ".p99_us", "us"})
	}
	defs = append(defs,
		metricDef{"readcache.lookups", "count"},
		metricDef{"readcache.hits", "count"},
		metricDef{"readcache.builds", "count"},
		metricDef{"readcache.flattened_builds", "count"},
		metricDef{"readcache.hit_ratio", "ratio"},
		metricDef{"posix.backend_ops", "count"},
		metricDef{"posix.vector_segments", "count"},
		metricDef{"posix.segments_per_op", "ratio"},
		metricDef{"posix.busy_ms", "ms"},
		metricDef{"posix.fsync_ms", "ms"},
		metricDef{"posix.read_bytes", "bytes"},
		metricDef{"posix.write_bytes", "bytes"},
		metricDef{"posix.replica_read_primary", "count"},
		metricDef{"posix.replica_read_failover", "count"},
		metricDef{"posix.replica_write_degraded", "count"},
	)
	for _, op := range clientOps {
		defs = append(defs,
			metricDef{"service.client." + op + ".p50_us", "us"},
			metricDef{"service.client." + op + ".p99_us", "us"})
	}
	for _, to := range tenantOps {
		defs = append(defs, metricDef{"service.tenant_" + to[0] + "." + to[1] + ".p99_us", "us"})
	}
	return append(defs,
		metricDef{"service.wire_us", "us"},
		metricDef{"gen.late_p99_us", "us"},
		metricDef{"read.p95_us", "us"},
		metricDef{"read.p99_us", "us"},
	)
}()

// plfsOps are the engine operations read from the plane's "plfs" layer.
var plfsOps = []string{"open", "read", "write", "sync"}

// tenantOps are the (tenant, op) rows read from the gateway's tenant
// layers, whose latency includes admission and token-bucket delay.
var tenantOps = [][2]string{{"gold", "read"}, {"batch", "open"}, {"batch", "write"}, {"batch", "sync"}}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics reads every per-layer metric from a traced measurement a.
func (t *tracer) layerMetrics(a *acc) map[string]float64 {
	m := map[string]float64{}
	v := t.view()
	for _, s := range []struct {
		name string
		sp   *span
	}{{"write_all", &t.mpiioWrite}, {"read_all", &t.mpiioRead}} {
		m["mpiio."+s.name+".calls"] = float64(s.sp.calls.Load())
		m["mpiio."+s.name+".p50_us"] = s.sp.lat.quantileUs(0.5)
		m["mpiio."+s.name+".p99_us"] = s.sp.lat.quantileUs(0.99)
		m["mpiio."+s.name+".self_ms"] = ms(s.sp.self.Load())
	}
	m["mpiio.shuffle_bytes"] = v.counter("mpiio", "shuffle_bytes")
	m["mpiio.shuffle_pieces"] = v.counter("mpiio", "shuffle_pieces")
	m["mpiio.agg_flush_ops"] = v.counter("mpiio", "agg_flush_ops")
	m["mpiio.round_overlap_ms"] = v.counter("mpiio", "round_overlap_ns") / 1e6
	m["mpiio.flush_collapse"] = ratio(m["mpiio.shuffle_pieces"], m["mpiio.agg_flush_ops"])
	m["mpi.barrier_wait_ms"] = ms(t.barrierWait.Load())

	m["driver.ops"] = float64(t.driver.calls.Load())
	m["driver.bytes"] = float64(t.driverBytes.Load())
	m["driver.busy_ms"] = ms(t.driver.busy.Load())
	m["driver.p99_us"] = t.driver.lat.quantileUs(0.99)

	for i, op := range shimOpNames {
		m["shim.calls."+op] = float64(t.shim[i].Load())
	}
	m["shim.busy_ms"] = ms(t.shimSpan.busy.Load())
	m["shim.self_ms"] = ms(t.shimSpan.self.Load())
	m["shim.read.p50_us"] = t.shimRead.quantileUs(0.5)
	m["shim.read.p99_us"] = t.shimRead.quantileUs(0.99)
	m["shim.open.p50_us"] = t.shimOpen.quantileUs(0.5)
	m["shim.open.p99_us"] = t.shimOpen.quantileUs(0.99)

	for _, op := range plfsOps {
		row := v.op("plfs", op)
		m["plfs."+op+".count"] = float64(row.Count)
		if op == "read" || op == "write" {
			m["plfs."+op+".bytes"] = float64(row.Bytes)
		}
		m["plfs."+op+".p50_us"] = histQuantileUs(row.Lat, 0.5)
		m["plfs."+op+".p99_us"] = histQuantileUs(row.Lat, 0.99)
	}
	for _, c := range []string{"lookups", "hits", "builds", "flattened_builds"} {
		m["readcache."+c] = v.counter("readcache", c)
	}
	m["readcache.hit_ratio"] = ratio(m["readcache.hits"], m["readcache.lookups"])

	m["posix.backend_ops"] = v.counter("posix", "backend_ops")
	m["posix.vector_segments"] = v.counter("posix", "vector_segments")
	m["posix.segments_per_op"] = ratio(m["posix.vector_segments"], m["posix.backend_ops"])
	m["posix.busy_ms"] = ms(t.posix.busy.Load())
	m["posix.fsync_ms"] = ms(t.posix.fsync.Load())
	m["posix.read_bytes"] = float64(v.op("posix", "read").Bytes)
	m["posix.write_bytes"] = float64(v.op("posix", "write").Bytes)
	for _, c := range []string{"replica_read_primary", "replica_read_failover", "replica_write_degraded"} {
		m["posix."+c] = v.counter("posix", c)
	}

	for _, op := range clientOps {
		m["service.client."+op+".p50_us"] = t.client[op].quantileUs(0.5)
		m["service.client."+op+".p99_us"] = t.client[op].quantileUs(0.99)
	}
	for _, to := range tenantOps {
		m["service.tenant_"+to[0]+"."+to[1]+".p99_us"] = histQuantileUs(v.op("tenant:"+to[0], to[1]).Lat, 0.99)
	}
	// The wire's share of a gold read: what the client waited minus
	// what the gateway measured from arrival to reply, at the median.
	m["service.wire_us"] = 0
	if gold := v.op("tenant:gold", "read"); gold.Count > 0 {
		m["service.wire_us"] = m["service.client.read.p50_us"] - histQuantileUs(gold.Lat, 0.5)
	}
	m["gen.late_p99_us"] = t.genLate.quantileUs(0.99)
	// The workload's read latency above the median, traced.
	m["read.p95_us"] = a.readTail(0.95)
	m["read.p99_us"] = a.readTail(0.99)
	return m
}
