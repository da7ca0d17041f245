BEGIN TRANSACTION;
CREATE TABLE events (
    seq     INTEGER PRIMARY KEY,
    type    TEXT NOT NULL,
    payload TEXT NOT NULL,
    crc     INTEGER NOT NULL
);
INSERT INTO "events" VALUES(8,'flush','{}',1882255583);
CREATE TABLE ledger (
    id_a       TEXT NOT NULL,
    id_b       TEXT NOT NULL,
    likelihood REAL,
    votes      TEXT,
    posterior  REAL,
    covered    INTEGER NOT NULL,
    PRIMARY KEY (id_a, id_b)
) WITHOUT ROWID;
INSERT INTO "ledger" VALUES('r1','r13',1.66666666666666657414e-01,'[["worker-39", false], ["worker-60", false], ["worker-49", true]]',3.33333333333333314829e-01,1);
INSERT INTO "ledger" VALUES('r1','r24',7.77777777777777790113e-01,'[["worker-43", true], ["worker-42", true], ["worker-1", true]]',1.0,1);
INSERT INTO "ledger" VALUES('r10','r28',0.2,'[["worker-31", false], ["worker-3", false], ["worker-36", false]]',0.0,1);
INSERT INTO "ledger" VALUES('r11','r32',0.6,NULL,NULL,1);
INSERT INTO "ledger" VALUES('r12','r23',1.76470588235294129075e-01,'[["worker-54", false], ["worker-27", false], ["worker-9", false]]',0.0,1);
INSERT INTO "ledger" VALUES('r12','r36',1.76470588235294129075e-01,NULL,NULL,1);
INSERT INTO "ledger" VALUES('r12','r39',2.35294117647058820264e-01,NULL,NULL,1);
INSERT INTO "ledger" VALUES('r12','r9',2.35294117647058820264e-01,'[["worker-41", false], ["worker-44", false], ["worker-12", false]]',0.0,1);
INSERT INTO "ledger" VALUES('r13','r14',2.30769230769230782041e-01,'[["worker-45", true], ["worker-24", true], ["worker-5", true]]',1.0,1);
INSERT INTO "ledger" VALUES('r14','r35',0.1875,NULL,NULL,1);
INSERT INTO "ledger" VALUES('r16','r39',4.61538461538461564082e-01,NULL,NULL,1);
INSERT INTO "ledger" VALUES('r18','r39',0.1875,NULL,NULL,1);
INSERT INTO "ledger" VALUES('r18','r9',0.1875,'[["worker-8", false], ["worker-57", true], ["worker-14", false]]',3.33333333333333314829e-01,1);
INSERT INTO "ledger" VALUES('r19','r40',1.76470588235294129075e-01,NULL,NULL,1);
INSERT INTO "ledger" VALUES('r2','r29',1.76470588235294129075e-01,'[["worker-51", false], ["worker-35", false], ["worker-19", false]]',0.0,1);
INSERT INTO "ledger" VALUES('r2','r34',1.76470588235294129075e-01,NULL,NULL,1);
INSERT INTO "ledger" VALUES('r21','r40',0.1875,NULL,NULL,1);
INSERT INTO "ledger" VALUES('r22','r40',0.1875,NULL,NULL,1);
INSERT INTO "ledger" VALUES('r25','r27',0.2,'[["worker-7", false], ["worker-18", false], ["worker-37", false]]',0.0,1);
INSERT INTO "ledger" VALUES('r25','r32',2.14285714285714273819e-01,NULL,NULL,1);
INSERT INTO "ledger" VALUES('r26','r34',1.76470588235294129075e-01,NULL,NULL,1);
INSERT INTO "ledger" VALUES('r26','r39',1.76470588235294129075e-01,NULL,NULL,1);
INSERT INTO "ledger" VALUES('r3','r8',5.45454545454545414173e-01,'[["worker-2", true], ["worker-42", true], ["worker-26", false]]',6.66666666666666629659e-01,1);
INSERT INTO "ledger" VALUES('r30','r5',0.1875,'[["worker-17", false], ["worker-58", false], ["worker-36", false]]',0.0,1);
INSERT INTO "ledger" VALUES('r34','r8',0.1875,NULL,NULL,1);
INSERT INTO "ledger" VALUES('r36','r7',6.36363636363636353543e-01,NULL,NULL,1);
INSERT INTO "ledger" VALUES('r38','r8',0.2,NULL,NULL,1);
INSERT INTO "ledger" VALUES('r40','r9',1.76470588235294129075e-01,NULL,NULL,1);
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
INSERT INTO "meta" VALUES('logged','true');
INSERT INTO "meta" VALUES('version','5');
INSERT INTO "meta" VALUES('config','{"likelihood_threshold": 0.15, "hit_type": "cluster", "cluster_size": 10, "pairs_per_hit": 16, "assignments_per_hit": 3, "use_qualification_test": false, "aggregation": "majority", "similarity_attributes": null, "join_backend": "auto", "join_workers": 0, "vote_mode": "per-pair", "stream_batch_size": 256, "streaming_aggregation_scope": "component", "checkpoint_dir": "out/store", "crowd": {"vote_timeout": 8, "max_inflight_hits": 64, "backpressure_policy": "block", "max_retries": 3, "fault_plan": {"seed": 3, "delay_ticks_min": 1, "delay_ticks_max": 3, "drop_probability": 0.0, "duplicate_probability": 0.0, "duplicate_delay_ticks": 2, "reorder_probability": 0.0, "reorder_window_ticks": 3, "churn_probability": 0.0, "burst_every": 0, "burst_backlog_ticks": 0, "max_faulty_attempts": 8}}, "seed": 0}');
INSERT INTO "meta" VALUES('cross_sources','null');
INSERT INTO "meta" VALUES('truth','[["r1", "r24"], ["r11", "r32"], ["r13", "r14"], ["r16", "r39"], ["r20", "r4"], ["r3", "r8"], ["r33", "r42"], ["r36", "r7"]]');
INSERT INTO "meta" VALUES('session','{"hit_count": 6, "cost": 0.45000000000000007, "batch_index": 6, "pairs_per_hit_seen": null, "generator_name": "two-tiered", "assignment_seconds": [[26.6, 1], [69.80000000000001, 6], [97.0, 6]]}');
INSERT INTO "meta" VALUES('async','{"platform": {"clock": 4, "publish_count": 3, "retries": 0, "timeouts": 0, "duplicates_dropped": 0, "reissued": 0, "extra_cost": 0.0, "hits": [["p2:two-tiered-hit-1", {"pairs": [["r12", "r36"], ["r12", "r39"], ["r16", "r39"], ["r18", "r39"], ["r2", "r34"], ["r26", "r34"], ["r26", "r39"], ["r34", "r8"], ["r36", "r7"]], "truth": [["r12", "r36", false], ["r12", "r39", false], ["r16", "r39", true], ["r18", "r39", false], ["r2", "r34", false], ["r26", "r34", false], ["r26", "r39", false], ["r34", "r8", false], ["r36", "r7", true]], "seconds": 97.0, "delivered": [1, 2], "issued_tick": 3, "publish_index": 2}], ["p2:two-tiered-hit-2", {"pairs": [["r11", "r32"], ["r14", "r35"], ["r19", "r40"], ["r21", "r40"], ["r22", "r40"], ["r25", "r32"], ["r40", "r9"]], "truth": [["r11", "r32", true], ["r14", "r35", false], ["r19", "r40", false], ["r21", "r40", false], ["r22", "r40", false], ["r25", "r32", false], ["r40", "r9", false]], "seconds": 97.0, "delivered": [2], "issued_tick": 3, "publish_index": 2}], ["p2:two-tiered-hit-3", {"pairs": [["r38", "r8"]], "truth": [["r38", "r8", false]], "seconds": 26.6, "delivered": [2], "issued_tick": 3, "publish_index": 2}]], "pending": [{"hit": "p2:two-tiered-hit-1", "slot": 0, "attempt": 0, "assignment_id": "p2:two-tiered-hit-1/s0/a0", "issued_tick": 3, "due_tick": 6, "deadline_tick": 11, "duplicate_of": null}, {"hit": "p2:two-tiered-hit-2", "slot": 0, "attempt": 0, "assignment_id": "p2:two-tiered-hit-2/s0/a0", "issued_tick": 3, "due_tick": 5, "deadline_tick": 11, "duplicate_of": null}, {"hit": "p2:two-tiered-hit-2", "slot": 1, "attempt": 0, "assignment_id": "p2:two-tiered-hit-2/s1/a0", "issued_tick": 3, "due_tick": 6, "deadline_tick": 11, "duplicate_of": null}, {"hit": "p2:two-tiered-hit-3", "slot": 0, "attempt": 0, "assignment_id": "p2:two-tiered-hit-3/s0/a0", "issued_tick": 3, "due_tick": 6, "deadline_tick": 11, "duplicate_of": null}, {"hit": "p2:two-tiered-hit-3", "slot": 1, "attempt": 0, "assignment_id": "p2:two-tiered-hit-3/s1/a0", "issued_tick": 3, "due_tick": 5, "deadline_tick": 11, "duplicate_of": null}], "ready": []}, "slot_votes": [["r11", "r32", [[2, "worker-7", true]]], ["r12", "r36", [[1, "worker-29", false], [2, "worker-16", false]]], ["r12", "r39", [[1, "worker-54", true], [2, "worker-59", false]]], ["r14", "r35", [[2, "worker-13", false]]], ["r16", "r39", [[1, "worker-47", false], [2, "worker-9", true]]], ["r18", "r39", [[1, "worker-6", false], [2, "worker-10", false]]], ["r19", "r40", [[2, "worker-34", false]]], ["r2", "r34", [[1, "worker-5", false], [2, "worker-3", false]]], ["r21", "r40", [[2, "worker-53", false]]], ["r22", "r40", [[2, "worker-60", false]]], ["r25", "r32", [[2, "worker-28", false]]], ["r26", "r34", [[1, "worker-32", false], [2, "worker-51", false]]], ["r26", "r39", [[1, "worker-50", false], [2, "worker-49", false]]], ["r34", "r8", [[1, "worker-37", false], [2, "worker-33", false]]], ["r36", "r7", [[1, "worker-25", true], [2, "worker-44", true]]], ["r38", "r8", [[2, "worker-23", false]]], ["r40", "r9", [[2, "worker-2", false]]]], "starved": []}');
INSERT INTO "meta" VALUES('events_applied','7');
CREATE TABLE records (
    record_id  TEXT PRIMARY KEY,
    attributes TEXT NOT NULL,
    source     TEXT,
    arrival    INTEGER NOT NULL
);
INSERT INTO "records" VALUES('r1','{"name": "old lotus bistro", "address": "9293 ventura st", "city": "denver", "type": "vegetarian"}',NULL,0);
INSERT INTO "records" VALUES('r2','{"name": "harbor spoon diner", "address": "5341 north market boulevard", "city": "los angeles", "type": "indian"}',NULL,1);
INSERT INTO "records" VALUES('r3','{"name": "little bistro", "address": "8154 s main boulevard", "city": "houston", "type": "japanese"}',NULL,2);
INSERT INTO "records" VALUES('r5','{"name": "new willow bistro", "address": "7794 east oak road", "city": "denver", "type": "bbq"}',NULL,4);
INSERT INTO "records" VALUES('r7','{"name": "oedar lantern kitchen", "address": "2334 south wilshire dr", "city": "boston", "type": "pizza"}',NULL,6);
INSERT INTO "records" VALUES('r8','{"name": "little fork bistro", "address": "8154 south main boulevard", "city": "houston", "type": "bbq"}',NULL,7);
INSERT INTO "records" VALUES('r9','{"name": "new anchor noodle bar", "address": "3012 west lexington road", "city": "miami", "type": "mediterranean"}',NULL,8);
INSERT INTO "records" VALUES('r10','{"name": "blue lotus bar", "address": "4491 south park drive", "city": "chicago", "type": "mexican"}',NULL,9);
INSERT INTO "records" VALUES('r11','{"name": "ocean bzsil steakhouse", "address": "5064 mission st", "city": "seattle", "type": "french"}',NULL,10);
INSERT INTO "records" VALUES('r12','{"name": "corner rose noodle bar", "address": "8033 west wilshire drive", "city": "new york", "type": "pizza"}',NULL,11);
INSERT INTO "records" VALUES('r13','{"name": "silver", "address": "8620 columbus st", "city": "denver", "type": "chinese"}',NULL,12);
INSERT INTO "records" VALUES('r14','{"name": "silver stove trattoria", "address": "8620 north spring avenue", "city": "denver", "type": "american new"}',NULL,13);
INSERT INTO "records" VALUES('r15','{"name": "uptown spoon eatery", "address": "1256 east main road", "city": "houston", "type": "thai"}',NULL,14);
INSERT INTO "records" VALUES('r16','{"name": "lucky kitchen", "address": "6215 wes melrose ave", "city": "new york", "type": "japanese"}',NULL,15);
INSERT INTO "records" VALUES('r17','{"name": "village orchid kitchen", "address": "1586 union drive", "city": "atlanta", "type": "thai"}',NULL,16);
INSERT INTO "records" VALUES('r18','{"name": "green anchor restaurant", "address": "8873 west melrose avenue", "city": "atlanta", "type": "mediterranean"}',NULL,17);
INSERT INTO "records" VALUES('r19','{"name": "happy terrace noodle bar", "address": "7899 east oak boulevard", "city": "boston", "type": "chinese"}',NULL,18);
INSERT INTO "records" VALUES('r20','{"name": "firk grill", "address": "2j08 n columbus street", "city": "san francisco", "type": "thai"}',NULL,19);
INSERT INTO "records" VALUES('r21','{"name": "little dragon steakhouse", "address": "5596 north sunset avenue", "city": "boston", "type": "mexican"}',NULL,20);
INSERT INTO "records" VALUES('r22','{"name": "mountain orchid kitchen", "address": "547 north canal road", "city": "chicago", "type": "french"}',NULL,21);
INSERT INTO "records" VALUES('r23','{"name": "sunny rose steakhouse", "address": "4923 west hill drive", "city": "atlanta", "type": "mexican"}',NULL,22);
INSERT INTO "records" VALUES('r24','{"name": "old lotus bistro", "address": "9293 ventura street", "city": "denver", "type": "vegetarian"}',NULL,23);
INSERT INTO "records" VALUES('r25','{"name": "silver table cafe", "address": "3970 south hill street", "city": "seattle", "type": "steakhouse"}',NULL,24);
INSERT INTO "records" VALUES('r26','{"name": "new willow house", "address": "6034 west maple avenue", "city": "los angeles", "type": "french"}',NULL,25);
INSERT INTO "records" VALUES('r27','{"name": "new dragon steakhouse", "address": "6140 south maple place", "city": "seattle", "type": "chinese"}',NULL,26);
INSERT INTO "records" VALUES('r28','{"name": "corner kettle trattoria", "address": "6577 south hill drive", "city": "chicago", "type": "mediterranean"}',NULL,27);
INSERT INTO "records" VALUES('r29','{"name": "happy hearth restaurant", "address": "5184 north sunset place", "city": "los angeles", "type": "bbq"}',NULL,28);
INSERT INTO "records" VALUES('r30','{"name": "uptown lantern trattoria", "address": "2416 east oak place", "city": "new york", "type": "italian"}',NULL,29);
INSERT INTO "records" VALUES('r6','{"name": "revised beyond recognition", "address": "1868 east canal avenue", "city": "boston", "type": "thai"}',NULL,30);
INSERT INTO "records" VALUES('r31','{"name": "lucky grove kitchen", "address": "3555 east spring drive", "city": "miami", "type": "american"}',NULL,31);
INSERT INTO "records" VALUES('r32','{"name": "ocean basil steakhouse", "address": "5064 mission street", "city": "seattle", "type": "french"}',NULL,32);
INSERT INTO "records" VALUES('r33','{"name": "blue truffle house", "address": "3341 e market road", "city": "new york", "type": "american new"}',NULL,33);
INSERT INTO "records" VALUES('r34','{"name": "cedar maple bistro", "address": "8943 south columbus boulevard", "city": "los angeles", "type": "italian"}',NULL,34);
INSERT INTO "records" VALUES('r35','{"name": "river pepper trattoria", "address": "3403 north market avenue", "city": "seattle", "type": "vegetarian"}',NULL,35);
INSERT INTO "records" VALUES('r36','{"name": "cedar lantern kitchen", "address": "2334 south wilshire drive", "city": "boston", "type": "pizza"}',NULL,36);
INSERT INTO "records" VALUES('r37','{"name": "little panda brasserie", "address": "338 east valencia drive", "city": "houston", "type": "chinese"}',NULL,37);
INSERT INTO "records" VALUES('r38','{"name": "happy rose grill", "address": "1011 south mission avenue", "city": "houston", "type": "bbq"}',NULL,38);
INSERT INTO "records" VALUES('r39','{"name": "lucky falcon kitchen", "address": "6215 west melrose avenue", "city": "new york", "type": "pizza"}',NULL,39);
INSERT INTO "records" VALUES('r40','{"name": "palm kettle noodle bar", "address": "3578 north sunset road", "city": "boston", "type": "french"}',NULL,40);
CREATE INDEX records_arrival ON records(arrival);
COMMIT;
